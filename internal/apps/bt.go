package apps

import (
	"time"

	"dex"
)

// btParams sizes the NPB BT kernel: a dense iterative solver over an N×N
// grid with 15 parallel regions per timestep (the paper converted each of
// BT's 15 OpenMP regions with a migrate-in/migrate-back pair).
type btParams struct {
	n         int
	regions   int
	timesteps int
	cellCost  time.Duration // BT's per-cell solver work is heavy (~200 flops)
}

func btSizes(s Size) btParams {
	switch s {
	case SizeFull:
		return btParams{n: 448, regions: 15, timesteps: 4, cellCost: 100 * time.Nanosecond}
	default:
		return btParams{n: 64, regions: 15, timesteps: 2, cellCost: 200 * time.Nanosecond}
	}
}

// RunBT runs the BT proxy kernel: per region, every thread applies a
// region-specific 5-point relaxation to its block of rows, exchanging
// boundary rows with neighbors. Threads migrate to their node at the start
// of each parallel region and return to the origin at its end, exactly as
// the paper's OpenMP conversion does; between regions they synchronize at
// the origin.
//
// Initial pathologies (§V-C): the per-region coefficient is read from the
// parent's stack page, which the parent also scribbles its loop counter
// onto every region (the pthread_create/OpenMP shared-variable pattern the
// paper fixes in BT), and grid rows are not page aligned, so block
// boundaries false-share. Optimized: coefficients are passed by value and
// rows are padded to page boundaries.
func RunBT(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := btSizes(cfg.Size)
	totalRegions := p.regions * p.timesteps
	// Region coefficients (what the parent would pass on its stack).
	coeffs := make([]float64, totalRegions)
	for r := range coeffs {
		coeffs[r] = 0.15 + 0.5*float64(r%p.regions)/float64(p.regions)
	}

	cluster := cfg.cluster()
	var checksum string
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("bt/setup")
		rowStride := 8 * p.n // packed rows (Initial)
		if cfg.Variant == Optimized {
			rowStride = (8*p.n + dex.PageSize - 1) / dex.PageSize * dex.PageSize
		}
		gridBytes := uint64(rowStride * p.n)
		// Double buffer: regions alternate reading one grid and writing
		// the other.
		gridA, err := main.Mmap(gridBytes, dex.ProtRead|dex.ProtWrite, "grid-a")
		if err != nil {
			return err
		}
		gridB, err := main.Mmap(gridBytes, dex.ProtRead|dex.ProtWrite, "grid-b")
		if err != nil {
			return err
		}
		rowAddr := func(grid dex.Addr, i int) dex.Addr { return grid + dex.Addr(i*rowStride) }
		// Initialize grid A with a deterministic pattern.
		row := make([]float64, p.n)
		for i := 0; i < p.n; i++ {
			for j := range row {
				row[j] = float64((i*31+j*17)%101) / 100
			}
			if err := writeFloat64s(main, rowAddr(gridA, i), row); err != nil {
				return err
			}
		}
		// The parent's stack page: region coefficient plus the parent's
		// own locals (Initial shares it; Optimized passes by value).
		stack, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "parent-stack")
		if err != nil {
			return err
		}
		coeffAddr, parentLocal := stack, stack+1024
		bar, err := dex.NewBarrier(main, threads+1)
		if err != nil {
			return err
		}

		body := func(w *dex.Thread, id int) error {
			node := nodeOf(id, threads, cfg.Nodes)
			rlo, rhi := partition(p.n, threads, id)
			cur, next := gridA, gridB
			above := make([]float64, p.n)
			below := make([]float64, p.n)
			block := make([][]float64, rhi-rlo)
			for r := 0; r < totalRegions; r++ {
				// Region entry: wait for the parent to publish the region,
				// then migrate out to the assigned node (§V-A conversion).
				if err := bar.Wait(w); err != nil {
					return err
				}
				if err := w.Migrate(node); err != nil {
					return err
				}
				c := coeffs[r]
				if cfg.Variant != Optimized {
					// Pathology: read the shared variable off the parent's
					// stack page after relocating (the paper's BT fix was
					// to pass these explicitly as arguments).
					w.SetSite("bt/stack-read")
					v, err := w.ReadFloat64(coeffAddr)
					if err != nil {
						return err
					}
					c = v
				}
				// Fetch boundary rows and the block, relax, write back.
				w.SetSite("bt/halo")
				if rlo > 0 {
					v, err := readFloat64s(w, rowAddr(cur, rlo-1), p.n)
					if err != nil {
						return err
					}
					copy(above, v)
				}
				if rhi < p.n {
					v, err := readFloat64s(w, rowAddr(cur, rhi), p.n)
					if err != nil {
						return err
					}
					copy(below, v)
				}
				w.SetSite("bt/block")
				for i := rlo; i < rhi; i++ {
					v, err := readFloat64s(w, rowAddr(cur, i), p.n)
					if err != nil {
						return err
					}
					block[i-rlo] = v
				}
				w.SetSite("bt/update")
				out := make([]float64, p.n)
				for i := rlo; i < rhi; i++ {
					w.Compute(time.Duration(p.n) * p.cellCost)
					if cfg.Variant != Optimized {
						// Pathology: per-row, every worker re-reads the
						// OpenMP shared loop bound from the parent's stack
						// page and writes its own shared loop counter back
						// to that page (OpenMP shared variables live on the
						// parent's stack until the compiler offloads them).
						w.SetSite("bt/stack-read")
						if _, err := w.ReadFloat64(coeffAddr); err != nil {
							return err
						}
						w.SetSite("bt/stack-write")
						if err := w.WriteUint64(parentLocal+dex.Addr(8*id), uint64(i)); err != nil {
							return err
						}
					}
					rowCur := block[i-rlo]
					up := above
					if i > rlo {
						up = block[i-rlo-1]
					} else if rlo == 0 {
						up = rowCur // reflect at the top boundary
					}
					dn := below
					if i < rhi-1 {
						dn = block[i-rlo+1]
					} else if rhi == p.n {
						dn = rowCur // reflect at the bottom boundary
					}
					for j := 0; j < p.n; j++ {
						l, rr := j-1, j+1
						if l < 0 {
							l = j
						}
						if rr >= p.n {
							rr = j
						}
						out[j] = c*rowCur[j] + (1-c)*0.25*(up[j]+dn[j]+rowCur[l]+rowCur[rr])
					}
					if err := writeFloat64s(w, rowAddr(next, i), out); err != nil {
						return err
					}
				}
				// Region exit: return to the origin and synchronize.
				if err := w.Migrate(0); err != nil {
					return err
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				cur, next = next, cur
			}
			return nil
		}

		roiStart = main.Now()
		ws := make([]*dex.Thread, 0, threads)
		for i := 0; i < threads; i++ {
			id := i
			w, err := main.Spawn(func(t *dex.Thread) error { return body(t, id) })
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for r := 0; r < totalRegions; r++ {
			// Parent publishes the region's coefficient on its stack page
			// and keeps writing its own locals there (Initial pathology).
			main.SetSite("bt/publish")
			if err := main.WriteFloat64(coeffAddr, coeffs[r]); err != nil {
				return err
			}
			if err := main.WriteUint64(parentLocal, uint64(r)); err != nil {
				return err
			}
			if err := bar.Wait(main); err != nil {
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
		// Checksum the final grid (it lives in whichever buffer the last
		// region wrote).
		final := gridA
		if totalRegions%2 == 1 {
			final = gridB
		}
		sum := make([]float64, 0, p.n*p.n)
		for i := 0; i < p.n; i++ {
			v, err := readFloat64s(main, rowAddr(final, i), p.n)
			if err != nil {
				return err
			}
			sum = append(sum, v...)
		}
		checksum = checksumFloats(sum, 0)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return cfg.result("bt", roiEnd-roiStart, report, checksum), nil
}
