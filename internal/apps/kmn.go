package apps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dex"
)

// kmnParams sizes the k-means workload (the paper clustered 5 million 3-D
// points into 100 centers; we scale down keeping the structure).
type kmnParams struct {
	points     int
	k          int
	iters      int
	chunk      int           // points read per bulk fetch
	mergeEvery int           // Initial: points per global-accumulator merge
	pointCost  time.Duration // distance evaluation cost per point per iter
}

func kmnSizes(s Size) kmnParams {
	switch s {
	case SizeFull:
		return kmnParams{points: 2_000_000, k: 24, iters: 5, chunk: 8192, mergeEvery: 24, pointCost: 200 * time.Nanosecond}
	default:
		return kmnParams{points: 24000, k: 8, iters: 3, chunk: 512, mergeEvery: 8, pointCost: 200 * time.Nanosecond}
	}
}

const kmnDims = 3

// RunKMN runs k-means clustering (KMN). Points are partitioned across
// worker threads; every iteration assigns points to the nearest center and
// recomputes the centers.
//
// Initial pathologies (§V-C): each chunk's partial sums are merged straight
// into the single global accumulator page, and a global "changed" flag is
// blindly rewritten whenever any point switches clusters — both bounce
// between all nodes. Optimized: per-thread accumulation for the whole
// partition, merged once per iteration into page-aligned per-thread slots
// that the main thread reduces.
func RunKMN(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Restart {
		return runKMNRestart(cfg)
	}
	p, pts, ref := kmnInput(cfg)

	cluster := cfg.cluster()
	var finalCenters []float64
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		points, centers, err := kmnSetup(main, pts, p.k)
		if err != nil {
			return err
		}
		// Global accumulator page: k * (3 sums + count), plus the changed
		// flag — all co-located (the Initial pathology).
		global, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "global-accum")
		if err != nil {
			return err
		}
		changed := global + dex.Addr(32*p.k)
		// Optimized: page-aligned per-thread partial slots.
		slots, err := main.Mmap(uint64(threads)*dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-partials")
		if err != nil {
			return err
		}
		bar, err := dex.NewBarrier(main, threads+1)
		if err != nil {
			return err
		}

		body := func(w *dex.Thread, id int) error {
			lo, hi := partition(p.points, threads, id)
			for iter := 0; iter < p.iters; iter++ {
				w.SetSite("kmn/centers")
				ctr, err := readFloat64s(w, centers, p.k*kmnDims)
				if err != nil {
					return err
				}
				acc := make([]float64, p.k*(kmnDims+1)) // sums then count per center
				anyChanged := false
				for pos := lo; pos < hi; pos += p.chunk {
					n := p.chunk
					if pos+n > hi {
						n = hi - pos
					}
					w.SetSite("kmn/points")
					buf, err := readFloat64s(w, points+dex.Addr(8*pos*kmnDims), n*kmnDims)
					if err != nil {
						return err
					}
					// Process the chunk in merge-granularity units so that
					// the Initial variant's global merges interleave with
					// computation the way the original per-point stores do.
					step := n
					if cfg.Variant != Optimized {
						step = p.mergeEvery
					}
					for sub := 0; sub < n; sub += step {
						m := step
						if sub+m > n {
							m = n - sub
						}
						w.Compute(time.Duration(m) * p.pointCost)
						subAcc := acc
						if cfg.Variant != Optimized {
							subAcc = make([]float64, p.k*(kmnDims+1))
						}
						kmnAssign(subAcc, buf[sub*kmnDims:(sub+m)*kmnDims], ctr)
						anyChanged = true
						if cfg.Variant != Optimized {
							// Pathology: stream partial sums straight into
							// the global accumulator page, and blindly set
							// the shared changed flag (§V-C).
							w.SetSite("kmn/global-merge")
							for j, v := range subAcc {
								if v != 0 {
									if _, err := w.AddFloat64(global+dex.Addr(8*j), v); err != nil {
										return err
									}
								}
							}
							if anyChanged {
								w.SetSite("kmn/changed-flag")
								if err := w.WriteUint32(changed, 1); err != nil {
									return err
								}
							}
						}
					}
				}
				if cfg.Variant == Optimized {
					// Stage locally; publish once into the thread's own
					// page-aligned slot (§V-C).
					w.SetSite("kmn/publish")
					if err := writeFloat64s(w, slots+dex.Addr(id)*dex.PageSize, acc); err != nil {
						return err
					}
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				// Main recomputes centers.
				if err := bar.Wait(w); err != nil {
					return err
				}
			}
			return nil
		}

		roiStart = main.Now()
		ws := make([]*dex.Thread, 0, threads)
		for i := 0; i < threads; i++ {
			id := i
			node := nodeOf(id, threads, cfg.Nodes)
			w, err := main.Spawn(func(t *dex.Thread) error {
				if cfg.Variant != Baseline {
					if err := t.Migrate(node); err != nil {
						return err
					}
				}
				if err := body(t, id); err != nil {
					return err
				}
				if cfg.Variant != Baseline {
					return t.MigrateBack()
				}
				return nil
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}

		for iter := 0; iter < p.iters; iter++ {
			if err := bar.Wait(main); err != nil {
				return err
			}
			main.SetSite("kmn/reduce")
			total := make([]float64, p.k*(kmnDims+1))
			if cfg.Variant == Optimized {
				for id := 0; id < threads; id++ {
					part, err := readFloat64s(main, slots+dex.Addr(id)*dex.PageSize, len(total))
					if err != nil {
						return err
					}
					for j, v := range part {
						total[j] += v
					}
				}
			} else {
				part, err := readFloat64s(main, global, len(total))
				if err != nil {
					return err
				}
				copy(total, part)
				// Reset the global accumulator and the changed flag.
				if err := writeFloat64s(main, global, make([]float64, len(total))); err != nil {
					return err
				}
				if err := main.WriteUint32(changed, 0); err != nil {
					return err
				}
			}
			if err := kmnRecenter(main, centers, total, p.k); err != nil {
				return err
			}
			if err := bar.Wait(main); err != nil {
				return err
			}
		}
		for _, w := range ws {
			main.Join(w)
		}
		roiEnd = main.Now()
		var err2 error
		finalCenters, err2 = readFloat64s(main, centers, p.k*kmnDims)
		return err2
	})
	return kmnResult(cfg, err, finalCenters, ref, roiEnd-roiStart, report)
}

// kmnRefs keeps the reference centers (k×3 floats) of the latest (size,
// seed); see inputs.go.
var kmnRefs derived[[]float64]

// kmnInput generates the points of a run and returns them with the
// sequential reference centers of those points. The points are big and
// cheap (48 MB and 0.07 s at full size), so every run generates its own;
// the reference is computed from the first run's.
func kmnInput(cfg Config) (p kmnParams, pts, ref []float64) {
	p = kmnSizes(cfg.Size)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts = make([]float64, p.points*kmnDims)
	for i := range pts {
		pts[i] = rng.Float64() * 100
	}
	ref = kmnRefs.get(cfg, func() []float64 { return kmnReference(pts, p) })
	return p, pts, ref
}

// kmnResult is the tail of a run: err is what the simulation returned, and
// its final centers must match the sequential reference.
func kmnResult(cfg Config, err error, centers, ref []float64, roi time.Duration, report dex.Report) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	for i := range ref {
		if math.Abs(ref[i]-centers[i]) > 1e-6*(1+math.Abs(ref[i])) {
			return Result{}, fmt.Errorf("kmn: center component %d = %g, want %g", i, centers[i], ref[i])
		}
	}
	return cfg.result("kmn", roi, report, checksumFloats(centers, 1e-6)), nil
}

// kmnSetup maps the points and the centers and fills them: the points as
// generated, the centers with the first k of them.
func kmnSetup(main *dex.Thread, pts []float64, k int) (points, centers dex.Addr, err error) {
	main.SetSite("kmn/setup")
	if points, err = main.Mmap(uint64(8*len(pts)), dex.ProtRead|dex.ProtWrite, "points"); err != nil {
		return 0, 0, err
	}
	if err = writeFloat64s(main, points, pts); err != nil {
		return 0, 0, err
	}
	if centers, err = main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "centers"); err != nil {
		return 0, 0, err
	}
	return points, centers, writeFloat64s(main, centers, pts[:k*kmnDims])
}

// kmnAssign adds each point of pts to the accumulator (three sums, then the
// count) of the center of ctr nearest to it.
func kmnAssign(acc, pts, ctr []float64) {
	for i := 0; i < len(pts); i += kmnDims {
		x, y, z := pts[i], pts[i+1], pts[i+2]
		best, bestD := 0, math.MaxFloat64
		for c := 0; c < len(ctr); c += kmnDims {
			dx, dy, dz := x-ctr[c], y-ctr[c+1], z-ctr[c+2]
			if d := dx*dx + dy*dy + dz*dz; d < bestD {
				best, bestD = c/kmnDims, d
			}
		}
		o := best * (kmnDims + 1)
		acc[o] += x
		acc[o+1] += y
		acc[o+2] += z
		acc[o+3]++
	}
}

// kmnRecenter is the main thread's step of an iteration: each center moves
// to the mean of the points total assigns it, or stays where it is if none.
func kmnRecenter(main *dex.Thread, centers dex.Addr, total []float64, k int) error {
	next := make([]float64, k*kmnDims)
	old, err := readFloat64s(main, centers, k*kmnDims)
	if err != nil {
		return err
	}
	for c := 0; c < k; c++ {
		cnt := total[c*(kmnDims+1)+kmnDims]
		for d := 0; d < kmnDims; d++ {
			if cnt > 0 {
				next[c*kmnDims+d] = total[c*(kmnDims+1)+d] / cnt
			} else {
				next[c*kmnDims+d] = old[c*kmnDims+d]
			}
		}
	}
	if err := writeFloat64s(main, centers, next); err != nil {
		return err
	}
	main.Compute(time.Duration(k) * time.Microsecond / 4)
	return nil
}

// kmnReference is the sequential k-means used for verification.
func kmnReference(pts []float64, p kmnParams) []float64 {
	centers := make([]float64, p.k*kmnDims)
	copy(centers, pts[:p.k*kmnDims])
	n := len(pts) / kmnDims
	for iter := 0; iter < p.iters; iter++ {
		acc := make([]float64, p.k*(kmnDims+1))
		for i := 0; i < n; i++ {
			x, y, z := pts[i*kmnDims], pts[i*kmnDims+1], pts[i*kmnDims+2]
			best, bestD := 0, math.MaxFloat64
			for c := 0; c < p.k; c++ {
				dx := x - centers[c*kmnDims]
				dy := y - centers[c*kmnDims+1]
				dz := z - centers[c*kmnDims+2]
				if d := dx*dx + dy*dy + dz*dz; d < bestD {
					best, bestD = c, d
				}
			}
			o := best * (kmnDims + 1)
			acc[o] += x
			acc[o+1] += y
			acc[o+2] += z
			acc[o+3]++
		}
		for c := 0; c < p.k; c++ {
			cnt := acc[c*(kmnDims+1)+kmnDims]
			if cnt > 0 {
				for d := 0; d < kmnDims; d++ {
					centers[c*kmnDims+d] = acc[c*(kmnDims+1)+d] / cnt
				}
			}
		}
	}
	return centers
}
