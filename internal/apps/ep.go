package apps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dex"
)

// epParams sizes the NPB EP (embarrassingly parallel) kernel: generate
// pairs of Gaussian deviates by the acceptance–rejection method and tally
// them into ten concentric square annuli, exactly as the benchmark does.
type epParams struct {
	pairs     int
	batch     int
	pairCost  time.Duration
	flushEach int // Initial: batches between partial-result flushes
}

func epSizes(s Size) epParams {
	switch s {
	case SizeFull:
		return epParams{pairs: 8_000_000, batch: 4096, pairCost: 150 * time.Nanosecond, flushEach: 8}
	default:
		return epParams{pairs: 64_000, batch: 2048, pairCost: 150 * time.Nanosecond, flushEach: 1}
	}
}

const epBins = 10

// epBatch generates one batch of uniform pairs, counts accepted Gaussian
// pairs per annulus. Seeding by global batch index makes results
// independent of how batches are partitioned across threads. src is the
// caller's, re-seeded here: Seed resets it to the state a new source of
// that seed starts in.
func epBatch(src rand.Source, seed int64, batchIdx, n int, bins *[epBins]uint64) (accepted uint64) {
	src.Seed(seed ^ int64(batchIdx)*0x9e3779b97f4a7c)
	for i := 0; i < n; i++ {
		x := 2*epUniform(src) - 1
		y := 2*epUniform(src) - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		m := math.Max(math.Abs(gx), math.Abs(gy))
		b := int(m)
		if b >= epBins {
			b = epBins - 1
		}
		bins[b]++
		accepted++
	}
	return accepted
}

// epUniform is what rand.Rand.Float64 draws from src: an Int63 over 2^63,
// drawn again where that rounds to 1.
func epUniform(src rand.Source) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// epTally is the result of an EP run: accepted pairs per annulus and in all.
type epTally struct {
	bins     [epBins]uint64
	accepted uint64
}

var epRefs derived[epTally]

// epReference is the verification tally: a sequential run of every batch.
func epReference(cfg Config) epTally {
	return epRefs.get(cfg, func() epTally {
		p := epSizes(cfg.Size)
		var ref epTally
		src := rand.NewSource(0)
		for b := 0; b*p.batch < p.pairs; b++ {
			n := p.batch
			if rem := p.pairs - b*p.batch; n > rem {
				n = rem
			}
			ref.accepted += epBatch(src, cfg.Seed, b, n, &ref.bins)
		}
		return ref
	})
}

// RunEP runs the NPB EP kernel: one parallel region, nearly no sharing —
// the paper's canonical scale-ready application.
//
// Initial pathology (mild, per §V-C): the loop-range parameters live on the
// same page as the global partial-result area, and threads flush partial
// tallies there every few batches, invalidating everyone's replica of the
// parameters, which they re-read per batch. Optimized: parameters are
// read once from their own page and tallies are merged once at the end
// into page-aligned slots.
func RunEP(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := epSizes(cfg.Size)
	batches := (p.pairs + p.batch - 1) / p.batch

	cluster := cfg.cluster()
	var bins [epBins]uint64
	var accepted uint64
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("ep/setup")
		// Shared page: parameters at the front, global tally area behind
		// them (the Initial co-location pathology).
		params, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "params+globals")
		if err != nil {
			return err
		}
		globalBins := params + 256
		if cfg.Variant == Optimized {
			// Read-only parameters on their own page; tallies on another.
			alignedParams, err := main.Mmap(2*dex.PageSize, dex.ProtRead|dex.ProtWrite, "aligned-params")
			if err != nil {
				return err
			}
			globalBins = alignedParams + dex.PageSize
			params = alignedParams
		}
		if err := main.WriteUint64(params, uint64(batches)); err != nil {
			return err
		}
		if err := main.WriteUint64(params+8, uint64(p.batch)); err != nil {
			return err
		}

		body := func(w *dex.Thread, id int) error {
			w.SetSite("ep/params")
			nb, err := w.ReadUint64(params)
			if err != nil {
				return err
			}
			bsz, err := w.ReadUint64(params + 8)
			if err != nil {
				return err
			}
			lo, hi := partition(int(nb), threads, id)
			src := rand.NewSource(0)
			var local [epBins]uint64
			var localAcc uint64
			for b := lo; b < hi; b++ {
				if cfg.Variant != Optimized {
					// Pathology: re-read the loop bound each batch; its
					// replica keeps getting invalidated by tally flushes.
					w.SetSite("ep/params")
					if nb, err = w.ReadUint64(params); err != nil {
						return err
					}
					_ = nb
				}
				n := int(bsz)
				if rem := p.pairs - b*int(bsz); n > rem {
					n = rem
				}
				w.SetSite("ep/compute")
				localAcc += epBatch(src, cfg.Seed, b, n, &local)
				w.Compute(time.Duration(n) * p.pairCost)
				if cfg.Variant != Optimized && (b-lo+1)%p.flushEach == 0 {
					// Pathology: flush partial tallies into the global
					// area co-located with the parameters.
					w.SetSite("ep/flush")
					for k, v := range local {
						if v == 0 {
							continue
						}
						if _, err := w.AddUint64(globalBins+dex.Addr(8*k), v); err != nil {
							return err
						}
						local[k] = 0
					}
				}
			}
			w.SetSite("ep/merge")
			for k, v := range local {
				if v == 0 {
					continue
				}
				if _, err := w.AddUint64(globalBins+dex.Addr(8*k), v); err != nil {
					return err
				}
			}
			_, err = w.AddUint64(globalBins+dex.Addr(8*epBins), localAcc)
			return err
		}
		roiStart = main.Now()
		if err := workerSet(main, cfg, body); err != nil {
			return err
		}
		roiEnd = main.Now()
		for k := 0; k < epBins; k++ {
			v, err := main.ReadUint64(globalBins + dex.Addr(8*k))
			if err != nil {
				return err
			}
			bins[k] = v
		}
		var err2 error
		accepted, err2 = main.ReadUint64(globalBins + dex.Addr(8*epBins))
		return err2
	})
	if err != nil {
		return Result{}, err
	}
	if ref := epReference(cfg); ref.accepted != accepted || ref.bins != bins {
		return Result{}, fmt.Errorf("ep: tallies diverge: got %v/%d want %v/%d", bins, accepted, ref.bins, ref.accepted)
	}
	return cfg.result("ep", roiEnd-roiStart, report, fmt.Sprintf("accepted=%d bins=%v", accepted, bins)), nil
}
