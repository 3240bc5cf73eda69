package apps

import (
	"encoding/binary"
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
	p, next, ref := kmnInput(cfg)
	cluster := cfg.cluster()
	if cfg.Restart && cluster.FaultInjection() {
		return runKMNRestart(cfg, cluster, p, next, ref)
	}

	var finalCenters []float64
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		points, centers, err := kmnSetup(main, next, p)
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
			kw := newKMNWorker(p, lo, hi)
			for iter := 0; iter < p.iters; iter++ {
				if err := kw.readCenters(w, centers); err != nil {
					return err
				}
				acc := make([]float64, p.k*(kmnDims+1)) // sums then count per center
				anyChanged := false
				for pos := lo; pos < hi; pos += p.chunk {
					n := p.chunk
					if pos+n > hi {
						n = hi - pos
					}
					if err := kw.read(w, points, pos, n); err != nil {
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
							subAcc = kw.sub
							clear(subAcc)
						}
						kw.assign(subAcc, sub, sub+m)
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
		ws, err := spawnWorkers(main, cfg, body)
		if err != nil {
			return err
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
		if err := joinWorkers(main, ws); err != nil {
			return err
		}
		roiEnd = main.Now()
		finalCenters, err = readFloat64s(main, centers, p.k*kmnDims)
		return err
	})
	return kmnResult(cfg, err, finalCenters, ref, roiEnd-roiStart, report)
}

// kmnRefs keeps the reference centers (k×3 floats) of the latest (size,
// seed); see inputs.go.
var kmnRefs derived[[]float64]

// kmnPoints is the generator of the points of seed: each call returns the
// next coordinate, three a point, in [0, 100).
func kmnPoints(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 { return rng.Float64() * 100 }
}

// kmnInput returns a run's sizes, the generator its points are drawn from
// straight into simulated memory (kmnSetup), and their reference centers,
// whose build, once per process and key, alone holds them as host floats.
func kmnInput(cfg Config) (p kmnParams, next func() float64, ref []float64) {
	p = kmnSizes(cfg.Size)
	ref = kmnRefs.get(cfg, func() []float64 { return kmnReference(kmnPoints(cfg.Seed), p) })
	return p, kmnPoints(cfg.Seed), ref
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

// kmnSetup maps the points and the centers and fills them: the points drawn
// from next, the centers with the first k of them.
func kmnSetup(main *dex.Thread, next func() float64, p kmnParams) (points, centers dex.Addr, err error) {
	main.SetSite("kmn/setup")
	if points, err = main.Mmap(uint64(8*kmnDims*p.points), dex.ProtRead|dex.ProtWrite, "points"); err != nil {
		return 0, 0, err
	}
	first := make([]float64, p.k*kmnDims)
	if err = writeWords(main, points, kmnDims*p.points, 8, func(i int) uint64 {
		v := next()
		if i < len(first) {
			first[i] = v
		}
		return math.Float64bits(v)
	}); err != nil {
		return 0, 0, err
	}
	if centers, err = main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "centers"); err != nil {
		return 0, 0, err
	}
	return points, centers, writeFloat64s(main, centers, first)
}

// kmnSlack is the relative slack s in the pivot search's stopping bound: it
// covers the rounding of the computed squared distances, each within a few
// ulps of the exact value.
const kmnSlack = 1e-9

// kmnWorker is what a k-means worker keeps across its chunks and iterations:
// one byte buffer every chunk is read into and decoded from in place, and
// the state of the nearest-center search. kmnReference runs the same search
// over all the points at once.
//
// The search starts from a pivot, the center the point got the iteration
// before (its hint), and rests on Elkan's Lemma 1 (ICML 2003): if ‖a−c‖ ≥
// 2‖p−a‖, c is no nearer to p than a is. With d_a the squared distance from
// p to its hint a, it walks a's other centers in order of distance from a,
// stops at the first c with ‖a−c‖² > 4·d_a·(1+kmnSlack), and picks the
// nearest center visited, the lowest index on a tie. Every center past the
// stop is then strictly farther from p than a even as computed, so the pick
// is the index the full index-order scan picks and acc gets the same sums in
// the same order. The argument needs finite coordinates whose nonzero
// squared differences are normal floats; kmn's points, and so its centers,
// lie in [0, 100). Any in-range hint gives the full scan's answer, a good
// one only saves evaluations. A worker without hints (the first iteration,
// a restarted incarnation) takes each point's hint from its cell of a grid
// of kmnCells³ cells over [0, 100)³, each holding the center the full scan
// picks for the cell's midpoint, filled as points first land in it.
type kmnWorker struct {
	k       int
	lo      int                // the partition's first point
	buf     []byte             // the chunk last read: three little-endian floats a point
	base    int                // partition position of the chunk's first point
	sub     []float64          // the accumulator of one merge unit (not Optimized)
	ctr     [kmnDims][]float64 // this iteration's centers, one array a coordinate
	started bool               // an iteration has started
	hinted  bool               // hint holds the previous iteration's answers
	hint    []uint8            // per point of the partition, the center it got last
	near    []uint8            // near[a*(k-1):][:k-1]: the centers other than a, nearest first
	nearD   []float64          // nearD[i]: the squared distance from a to near[i]

	// The first pass's hints: cell (i, j, l) at (i*kmnCells+j)*kmnCells+l.
	cell [kmnCells * kmnCells * kmnCells]uint8
}

// kmnCells is the number of grid cells along each axis of [0, 100), and
// kmnCellEmpty marks a cell not yet used in the first pass.
const (
	kmnCells     = 8
	kmnCellEmpty = 0xff
)

func newKMNWorker(p kmnParams, lo, hi int) *kmnWorker {
	kw := &kmnWorker{
		k:     p.k,
		lo:    lo,
		buf:   make([]byte, 8*kmnDims*p.chunk),
		sub:   make([]float64, p.k*(kmnDims+1)),
		hint:  make([]uint8, hi-lo),
		near:  make([]uint8, p.k*(p.k-1)),
		nearD: make([]float64, p.k*(p.k-1)),
	}
	ctr := make([]float64, kmnDims*p.k)
	for d := range kw.ctr {
		kw.ctr[d] = ctr[d*p.k : (d+1)*p.k]
	}
	return kw
}

// setCenters starts an iteration on the centers ctr (k×3).
func (kw *kmnWorker) setCenters(ctr []float64) {
	for i, v := range ctr {
		kw.ctr[i%kmnDims][i/kmnDims] = v
	}
	kw.start()
}

// readCenters starts an iteration on the k×3 floats at centers, decoded
// straight into the worker's arrays.
func (kw *kmnWorker) readCenters(w *dex.Thread, centers dex.Addr) error {
	w.SetSite("kmn/centers")
	if err := readWords(w, centers, kmnDims*kw.k, 8, func(i int, v uint64) {
		kw.ctr[i%kmnDims][i/kmnDims] = math.Float64frombits(v)
	}); err != nil {
		return err
	}
	kw.start()
	return nil
}

// start begins an iteration on the centers just stored: each center's list
// of the others is sorted again, by insertion into the arrays the worker
// keeps. From the second iteration on the hints are the last iteration's
// answers; on the first the grid is emptied, and assign fills a cell on its
// first use.
func (kw *kmnWorker) start() {
	kw.hinted, kw.started = kw.started, true
	if !kw.hinted {
		for i := range kw.cell {
			kw.cell[i] = kmnCellEmpty
		}
	}
	k, cx, cy, cz := kw.k, kw.ctr[0], kw.ctr[1], kw.ctr[2]
	for a := 0; a < k; a++ {
		near, nearD := kw.near[a*(k-1):(a+1)*(k-1)], kw.nearD[a*(k-1):(a+1)*(k-1)]
		n := 0
		for c := 0; c < k; c++ {
			if c == a {
				continue
			}
			d := kmnDist(cx[a]-cx[c], cy[a]-cy[c], cz[a]-cz[c])
			j := n
			for ; j > 0 && nearD[j-1] > d; j-- {
				near[j], nearD[j] = near[j-1], nearD[j-1]
			}
			near[j], nearD[j] = uint8(c), d
			n++
		}
	}
}

// read fetches points [pos, pos+n) into the worker's buffer.
func (kw *kmnWorker) read(w *dex.Thread, points dex.Addr, pos, n int) error {
	w.SetSite("kmn/points")
	kw.base = pos - kw.lo
	kw.buf = kw.buf[:8*kmnDims*n]
	return w.Read(points+dex.Addr(8*pos*kmnDims), kw.buf)
}

// assign adds points [from, to) of the chunk last read to the accumulator
// (three sums, then the count) of the center nearest to each.
func (kw *kmnWorker) assign(acc []float64, from, to int) {
	for i := from; i < to; i++ {
		x, y, z := f64At(kw.buf, kmnDims*i), f64At(kw.buf, kmnDims*i+1), f64At(kw.buf, kmnDims*i+2)
		h := &kw.hint[kw.base+i]
		if !kw.hinted {
			*h = kw.cellHint(x, y, z)
		}
		best := kw.nearest(x, y, z, int(*h))
		*h = uint8(best)
		o := best * (kmnDims + 1)
		acc[o] += x
		acc[o+1] += y
		acc[o+2] += z
		acc[o+3]++
	}
}

// cellHint is the first pass's hint for (x, y, z): the full scan's pick for
// the midpoint of its grid cell, scanned on the cell's first use. Under
// k = 256 a cell holding center 255 reads as empty and is scanned again, to
// the same pick.
func (kw *kmnWorker) cellHint(x, y, z float64) uint8 {
	i, j, l := kmnCell(x), kmnCell(y), kmnCell(z)
	c := &kw.cell[(i*kmnCells+j)*kmnCells+l]
	if *c == kmnCellEmpty {
		const w = 100.0 / kmnCells
		*c = uint8(kw.scan((float64(i)+0.5)*w, (float64(j)+0.5)*w, (float64(l)+0.5)*w))
	}
	return *c
}

// kmnCell is the grid cell along one axis of coordinate v, clamped so that
// no rounding of v·kmnCells/100 at the domain's edges leaves the grid.
func kmnCell(v float64) int {
	return min(max(int(v*(kmnCells/100.0)), 0), kmnCells-1)
}

// scan is the full scan: the first center in index order at the least
// squared distance from (x, y, z). It fills the grid's cells.
func (kw *kmnWorker) scan(x, y, z float64) int {
	cx, cy, cz := kw.ctr[0], kw.ctr[1][:len(kw.ctr[0])], kw.ctr[2][:len(kw.ctr[0])]
	best, bestD := 0, math.MaxFloat64
	for c := range cx {
		if d := kmnDist(x-cx[c], y-cy[c], z-cz[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// nearest is the search from the pivot a (see kmnWorker).
func (kw *kmnWorker) nearest(x, y, z float64, a int) int {
	cx, cy, cz := kw.ctr[0], kw.ctr[1], kw.ctr[2]
	best, bestD := a, kmnDist(x-cx[a], y-cy[a], z-cz[a])
	stop := 4 * bestD * (1 + kmnSlack)
	near := kw.near[a*(kw.k-1) : (a+1)*(kw.k-1)]
	nearD := kw.nearD[a*(kw.k-1):][:len(near)]
	for j, c := range near {
		if nearD[j] > stop {
			break
		}
		if d := kmnDist(x-cx[c], y-cy[c], z-cz[c]); d < bestD || d == bestD && int(c) < best {
			best, bestD = int(c), d
		}
	}
	return best
}

// kmnDist is the squared length of (dx, dy, dz).
func kmnDist(dx, dy, dz float64) float64 {
	return dx*dx + dy*dy + dz*dz
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

// kmnReference is the sequential k-means used for verification, over the
// points next draws. It assigns them with kmnWorker's search, one worker
// over all of them (kmn_test.go keeps the plain full scan as its oracle),
// and sums them in index order.
func kmnReference(next func() float64, p kmnParams) []float64 {
	kw := newKMNWorker(kmnParams{k: p.k, chunk: p.points}, 0, p.points)
	for i := 0; i < kmnDims*p.points; i++ {
		binary.LittleEndian.PutUint64(kw.buf[8*i:], math.Float64bits(next()))
	}
	centers := make([]float64, p.k*kmnDims)
	for i := range centers {
		centers[i] = f64At(kw.buf, i)
	}
	for iter := 0; iter < p.iters; iter++ {
		kw.setCenters(centers)
		acc := make([]float64, p.k*(kmnDims+1))
		kw.assign(acc, 0, p.points)
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
