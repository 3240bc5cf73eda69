package apps

import (
	"math"
	"math/bits"
	"math/rand"
	"time"

	"dex"
)

// ftParams sizes the NPB FT proxy: iterated 2-D FFT passes where every
// iteration FFTs the rows of a shared grid and then transposes it — the
// transpose being the all-to-all exchange that dominates FT's behaviour on
// DeX (it never scales beyond a single machine, as Figure 2 shows).
type ftParams struct {
	rows     int // power of two
	cols     int // complex elements per row (power of two)
	iters    int
	elemCost time.Duration // per-element FFT cost (times log2 n)
}

func ftSizes(s Size) ftParams {
	switch s {
	case SizeFull:
		return ftParams{rows: 256, cols: 256, iters: 3, elemCost: 12 * time.Nanosecond}
	default:
		return ftParams{rows: 32, cols: 32, iters: 2, elemCost: 12 * time.Nanosecond}
	}
}

// fft computes an in-place radix-2 complex FFT.
func fft(a []complex128) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("apps: fft size must be a power of two")
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		wl := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				u := a[start+k]
				v := a[start+k+size/2] * w
				a[start+k] = u + v
				a[start+k+size/2] = u - v
				w *= wl
			}
		}
	}
}

// RunFT runs the FT proxy (iterated row-FFT + transpose). Each iteration:
// every thread FFTs its rows in place (local pages), then the grid is
// transposed into a second buffer — each output row gathers one element
// from every input row, so every node ends up pulling the entire grid
// across the interconnect each iteration.
//
// Initial pathologies: rows are packed so partition boundaries false-share,
// a shared per-row progress counter is bumped for every row completed, and
// loop bounds are re-read from the shared args page. Optimized: rows padded
// to page boundaries, no shared counter, local bounds — the all-to-all
// stays, which is why FT does not scale either way.
func RunFT(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := ftSizes(cfg.Size)
	rng := rand.New(rand.NewSource(cfg.Seed))
	init := make([]float64, p.rows*p.cols*2)
	for i := range init {
		init[i] = rng.Float64()*2 - 1
	}

	cluster := cfg.cluster()
	var checksum string
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("ft/setup")
		rowBytes := 16 * p.cols
		rowStride := rowBytes // packed (Initial)
		if cfg.Variant == Optimized {
			rowStride = (rowBytes + dex.PageSize - 1) / dex.PageSize * dex.PageSize
		}
		gridBytes := uint64(rowStride * p.rows)
		gridA, err := main.Mmap(gridBytes, dex.ProtRead|dex.ProtWrite, "grid-a")
		if err != nil {
			return err
		}
		gridB, err := main.Mmap(gridBytes, dex.ProtRead|dex.ProtWrite, "grid-b")
		if err != nil {
			return err
		}
		rowAddr := func(g dex.Addr, i int) dex.Addr { return g + dex.Addr(i*rowStride) }
		for i := 0; i < p.rows; i++ {
			if err := writeFloat64s(main, rowAddr(gridA, i), init[i*p.cols*2:(i+1)*p.cols*2]); err != nil {
				return err
			}
		}
		// Shared control page: bounds plus the Initial progress counter.
		ctl, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "ft-control")
		if err != nil {
			return err
		}
		progress := ctl + 8
		bar, err := dex.NewBarrier(main, threads)
		if err != nil {
			return err
		}
		if err := main.WriteUint64(ctl, uint64(p.rows)); err != nil {
			return err
		}

		body := func(w *dex.Thread, id int) error {
			rlo, rhi := partition(p.rows, threads, id)
			cur, next := gridA, gridB
			rowc := make([]complex128, p.cols)
			logn := bits.Len(uint(p.cols)) - 1
			for iter := 0; iter < p.iters; iter++ {
				// Phase 1: FFT own rows in place.
				for i := rlo; i < rhi; i++ {
					if cfg.Variant != Optimized {
						w.SetSite("ft/bounds")
						if _, err := w.ReadUint64(ctl); err != nil {
							return err
						}
					}
					w.SetSite("ft/fft")
					v, err := readFloat64s(w, rowAddr(cur, i), p.cols*2)
					if err != nil {
						return err
					}
					for j := 0; j < p.cols; j++ {
						rowc[j] = complex(v[2*j], v[2*j+1])
					}
					fft(rowc)
					for j := 0; j < p.cols; j++ {
						v[2*j], v[2*j+1] = real(rowc[j]), imag(rowc[j])
					}
					w.Compute(time.Duration(p.cols*logn) * p.elemCost)
					if err := writeFloat64s(w, rowAddr(cur, i), v); err != nil {
						return err
					}
					if cfg.Variant != Optimized {
						// Pathology: shared per-row progress counter.
						w.SetSite("ft/progress")
						if _, err := w.AddUint64(progress, 1); err != nil {
							return err
						}
					}
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				// Phase 2: transpose — gather column i of cur into row i of
				// next. This touches every row of cur: the all-to-all.
				w.SetSite("ft/transpose")
				out := make([]float64, p.cols*2)
				for i := rlo; i < rhi; i++ {
					for j := 0; j < p.rows; j++ {
						e, err := readFloat64s(w, rowAddr(cur, j)+dex.Addr(16*i), 2)
						if err != nil {
							return err
						}
						out[2*j], out[2*j+1] = e[0], e[1]
					}
					w.Compute(time.Duration(p.rows) * 2 * time.Nanosecond)
					if err := writeFloat64s(w, rowAddr(next, i), out); err != nil {
						return err
					}
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				cur, next = next, cur
			}
			return nil
		}
		roiStart = main.Now()
		if err := workerSet(main, cfg, body); err != nil {
			return err
		}
		roiEnd = main.Now()
		final := gridA
		if p.iters%2 == 1 {
			final = gridB
		}
		sum := make([]float64, 0, p.rows*p.cols*2)
		for i := 0; i < p.rows; i++ {
			v, err := readFloat64s(main, rowAddr(final, i), p.cols*2)
			if err != nil {
				return err
			}
			sum = append(sum, v...)
		}
		checksum = checksumFloats(sum, 1e-9)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return cfg.result("ft", roiEnd-roiStart, report, checksum), nil
}
