package apps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dex"
)

// blkParams sizes the PARSEC blackscholes workload: independent option
// pricing over a shared array, the 'native' input scaled down.
type blkParams struct {
	options    int
	chunk      int
	optionCost time.Duration
}

func blkSizes(s Size) blkParams {
	switch s {
	case SizeFull:
		return blkParams{options: 600_000, chunk: 2048, optionCost: 1000 * time.Nanosecond}
	default:
		return blkParams{options: 12_000, chunk: 512, optionCost: 250 * time.Nanosecond}
	}
}

const blkFields = 5 // spot, strike, rate, volatility, expiry

// cndf is the cumulative normal distribution function used by the
// Black-Scholes closed form.
func cndf(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// blackScholes prices one European call option.
func blackScholes(s, k, r, v, t float64) float64 {
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * math.Sqrt(t))
	d2 := d1 - v*math.Sqrt(t)
	return s*cndf(d1) - k*math.Exp(-r*t)*cndf(d2)
}

// RunBLK runs the blackscholes application (BLK): each thread prices a
// disjoint partition of a shared option array. The workload is read-mostly
// with independent writes, so it scales nearly linearly even Initial, as
// the paper observes.
//
// Initial pathologies (mild): result partitions are not page aligned, so
// threads adjacent across a node boundary false-share the boundary pages,
// and per-chunk bounds are re-read from the shared args page. Optimized:
// page-aligned per-thread result areas and thread-local bounds.
func RunBLK(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := blkSizes(cfg.Size)
	rng := rand.New(rand.NewSource(cfg.Seed))
	opts := make([]float64, p.options*blkFields)
	for i := 0; i < p.options; i++ {
		opts[i*blkFields+0] = 20 + 80*rng.Float64()     // spot
		opts[i*blkFields+1] = 20 + 80*rng.Float64()     // strike
		opts[i*blkFields+2] = 0.01 + 0.05*rng.Float64() // rate
		opts[i*blkFields+3] = 0.1 + 0.4*rng.Float64()   // volatility
		opts[i*blkFields+4] = 0.25 + 2*rng.Float64()    // expiry
	}

	cluster := cfg.cluster()
	prices := make([]float64, p.options)
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("blk/setup")
		data, err := main.Mmap(uint64(8*len(opts)), dex.ProtRead|dex.ProtWrite, "options")
		if err != nil {
			return err
		}
		if err := writeFloat64s(main, data, opts); err != nil {
			return err
		}
		args, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-args")
		if err != nil {
			return err
		}
		var results dex.Addr
		perThreadPages := 0
		if cfg.Variant == Optimized {
			// Page-aligned per-thread result areas.
			maxPart := (p.options+threads-1)/threads + 1
			perThreadPages = (8*maxPart + dex.PageSize - 1) / dex.PageSize
			results, err = main.Mmap(uint64(threads*perThreadPages)*dex.PageSize, dex.ProtRead|dex.ProtWrite, "results-aligned")
		} else {
			// One packed result array: partition boundaries share pages.
			results, err = main.Mmap(uint64(8*p.options), dex.ProtRead|dex.ProtWrite, "results")
		}
		if err != nil {
			return err
		}
		for id := 0; id < threads; id++ {
			lo, hi := partition(p.options, threads, id)
			if err := main.WriteUint64(args+dex.Addr(16*id), uint64(lo)); err != nil {
				return err
			}
			if err := main.WriteUint64(args+dex.Addr(16*id)+8, uint64(hi)); err != nil {
				return err
			}
		}

		body := func(w *dex.Thread, id int) error {
			w.SetSite("blk/args")
			lo64, err := w.ReadUint64(args + dex.Addr(16*id))
			if err != nil {
				return err
			}
			hi64, err := w.ReadUint64(args + dex.Addr(16*id) + 8)
			if err != nil {
				return err
			}
			lo, hi := int(lo64), int(hi64)
			out := make([]float64, 0, p.chunk)
			for pos := lo; pos < hi; pos += p.chunk {
				if cfg.Variant != Optimized {
					w.SetSite("blk/args")
					if hi64, err = w.ReadUint64(args + dex.Addr(16*id) + 8); err != nil {
						return err
					}
					hi = int(hi64)
				}
				n := p.chunk
				if pos+n > hi {
					n = hi - pos
				}
				w.SetSite("blk/options")
				in, err := readFloat64s(w, data+dex.Addr(8*pos*blkFields), n*blkFields)
				if err != nil {
					return err
				}
				out = out[:0]
				for i := 0; i < n; i++ {
					out = append(out, blackScholes(in[i*blkFields], in[i*blkFields+1], in[i*blkFields+2], in[i*blkFields+3], in[i*blkFields+4]))
				}
				w.Compute(time.Duration(n) * p.optionCost)
				w.SetSite("blk/results")
				dst := results + dex.Addr(8*pos)
				if cfg.Variant == Optimized {
					dst = results + dex.Addr(id*perThreadPages)*dex.PageSize + dex.Addr(8*(pos-lo))
				}
				if err := writeFloat64s(w, dst, out); err != nil {
					return err
				}
			}
			return nil
		}
		roiStart = main.Now()
		if err := workerSet(main, cfg, body); err != nil {
			return err
		}
		roiEnd = main.Now()
		main.SetSite("blk/collect")
		for id := 0; id < threads; id++ {
			lo, hi := partition(p.options, threads, id)
			src := results + dex.Addr(8*lo)
			if cfg.Variant == Optimized {
				src = results + dex.Addr(id*perThreadPages)*dex.PageSize
			}
			part, err := readFloat64s(main, src, hi-lo)
			if err != nil {
				return err
			}
			copy(prices[lo:hi], part)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	// Verify a sample of prices against direct evaluation, and all for
	// small sizes.
	step := 1
	if p.options > 50_000 {
		step = 97
	}
	for i := 0; i < p.options; i += step {
		want := blackScholes(opts[i*blkFields], opts[i*blkFields+1], opts[i*blkFields+2], opts[i*blkFields+3], opts[i*blkFields+4])
		if prices[i] != want {
			return Result{}, fmt.Errorf("blk: option %d priced %g, want %g", i, prices[i], want)
		}
	}
	return cfg.result("blk", roiEnd-roiStart, report, checksumFloats(prices, 0)), nil
}
