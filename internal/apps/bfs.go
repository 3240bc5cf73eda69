package apps

import (
	"fmt"
	"time"

	"dex"
	"dex/internal/graph"
)

// bfsParams sizes the Polymer breadth-first-search workload. The paper used
// a 67M-vertex R-MAT graph (Graph500 parameters); we scale down keeping the
// skewed degree distribution and the level-synchronous structure.
type bfsParams struct {
	vertices  int
	edges     int
	maxLevels int
	edgeCost  time.Duration
}

func bfsSizes(s Size) bfsParams {
	switch s {
	case SizeFull:
		return bfsParams{vertices: 65536, edges: 1_500_000, maxLevels: 64, edgeCost: 50 * time.Nanosecond}
	default:
		return bfsParams{vertices: 2048, edges: 16_000, maxLevels: 64, edgeCost: 50 * time.Nanosecond}
	}
}

// bfsInput is what a BFS run derives from (size, seed): the R-MAT graph,
// the source vertex and the reference levels. Read-only.
type bfsInput struct {
	g    *graph.CSR
	src  int
	want []int32
}

var bfsInputs derived[*bfsInput]

func bfsInputOf(cfg Config) *bfsInput {
	return bfsInputs.get(cfg, func() *bfsInput {
		p := bfsSizes(cfg.Size)
		g := graph.RMAT(cfg.Seed, p.vertices, p.edges)
		src := g.MaxDegreeVertex()
		return &bfsInput{g: g, src: src, want: graph.BFSLevels(g, src)}
	})
}

// RunBFS runs level-synchronous BFS over an R-MAT graph with edge-balanced
// vertex partitions (Polymer's NUMA-aware layout).
//
// Initial pathologies: discovered vertices are written directly into the
// (unaligned) shared levels array and next-frontier — irregular cross-node
// write faults — the per-level changed flag is blindly rewritten per
// discovery, and per-thread frontier counters are packed onto one shared
// page. Optimized (§V-C): each thread stages its discoveries in its own
// page-aligned buffer; after a barrier the owner of each vertex range
// applies updates locally, and the changed flag is set once per thread per
// level.
func RunBFS(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := bfsSizes(cfg.Size)
	in := bfsInputOf(cfg)
	g, src, want := in.g, in.src, in.want

	cluster := cfg.cluster()
	got := make([]int32, g.N)
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("bfs/setup")
		// Graph structure in shared memory (read-only after load).
		offsets, err := main.Mmap(uint64(8*(g.N+1)), dex.ProtRead|dex.ProtWrite, "csr-offsets")
		if err != nil {
			return err
		}
		if err := writeUint64s(main, offsets, g.Offsets); err != nil {
			return err
		}
		edges, err := main.Mmap(uint64(4*g.M()+8), dex.ProtRead|dex.ProtWrite, "csr-edges")
		if err != nil {
			return err
		}
		if err := writeUint32s(main, edges, g.Edges); err != nil {
			return err
		}
		// levels[v] holds BFS depth + 1; 0 means unvisited.
		levels, err := main.Mmap(uint64(4*g.N), dex.ProtRead|dex.ProtWrite, "levels")
		if err != nil {
			return err
		}
		// Double-buffered frontier bitmaps.
		curF, err := main.Mmap(uint64(g.N), dex.ProtRead|dex.ProtWrite, "frontier-a")
		if err != nil {
			return err
		}
		nextF, err := main.Mmap(uint64(g.N), dex.ProtRead|dex.ProtWrite, "frontier-b")
		if err != nil {
			return err
		}
		// Per-level changed flags (written during level L, read after).
		flags, err := main.Mmap(uint64(4*p.maxLevels), dex.ProtRead|dex.ProtWrite, "level-flags")
		if err != nil {
			return err
		}
		// Initial pathology: per-thread frontier counters packed onto one
		// page (Polymer's framework arrays of per-thread objects).
		counters, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-counters")
		if err != nil {
			return err
		}
		// Optimized: page-aligned per-thread staging buffers.
		stagePages := (4*(g.N+1) + dex.PageSize - 1) / dex.PageSize
		staging, err := main.Mmap(uint64(threads*stagePages)*dex.PageSize, dex.ProtRead|dex.ProtWrite, "staging")
		if err != nil {
			return err
		}
		stageBase := func(id int) dex.Addr { return staging + dex.Addr(id*stagePages)*dex.PageSize }

		if err := main.WriteUint32(levels+dex.Addr(4*src), 1); err != nil {
			return err
		}
		if err := main.Write(curF+dex.Addr(src), []byte{1}); err != nil {
			return err
		}
		ranges := g.EdgeBalancedRanges(threads)
		bar, err := dex.NewBarrier(main, threads)
		if err != nil {
			return err
		}

		body := func(w *dex.Thread, id int) error {
			r := ranges[id]
			// Per-worker view of the double-buffered frontiers.
			cf, nf := curF, nextF
			// Load this partition's adjacency structure once (read-only
			// replication of the graph).
			w.SetSite("bfs/graph-load")
			offs, err := readUint64s(w, offsets+dex.Addr(8*r.Lo), r.Hi-r.Lo+1)
			if err != nil {
				return err
			}
			var adj []uint32
			if r.Hi > r.Lo && offs[len(offs)-1] > offs[0] {
				adj, err = readUint32s(w, edges+dex.Addr(4*offs[0]), int(offs[len(offs)-1]-offs[0]))
				if err != nil {
					return err
				}
			}
			frontier := make([]byte, r.Hi-r.Lo)
			discovered := make([]uint32, 0, 1024)
			seen := make([]uint32, g.N) // per-level dedup epochs (Optimized)
			for level := uint32(1); level <= uint32(p.maxLevels); level++ {
				// Scan the current frontier within our own range.
				w.SetSite("bfs/frontier")
				if len(frontier) > 0 {
					if err := w.Read(cf+dex.Addr(r.Lo), frontier); err != nil {
						return err
					}
				}
				discovered = discovered[:0]
				edgesScanned := 0
				for v := r.Lo; v < r.Hi; v++ {
					if frontier[v-r.Lo] == 0 {
						continue
					}
					lo, hi := offs[v-r.Lo]-offs[0], offs[v-r.Lo+1]-offs[0]
					edgesScanned += int(hi - lo)
					for _, wv := range adj[lo:hi] {
						if cfg.Variant == Optimized {
							if seen[wv] != level {
								seen[wv] = level
								discovered = append(discovered, wv)
							}
							continue
						}
						// Pathology: probe and write the shared arrays
						// directly, wherever the vertex lives.
						w.SetSite("bfs/probe")
						lv, err := w.ReadUint32(levels + dex.Addr(4*wv))
						if err != nil {
							return err
						}
						if lv != 0 {
							continue
						}
						w.SetSite("bfs/discover")
						if err := w.WriteUint32(levels+dex.Addr(4*wv), level+1); err != nil {
							return err
						}
						if err := w.Write(nf+dex.Addr(wv), []byte{1}); err != nil {
							return err
						}
						// Blind per-discovery flag write + packed counter.
						if err := w.WriteUint32(flags+dex.Addr(4*(level-1)), 1); err != nil {
							return err
						}
						if _, err := w.AddUint64(counters+dex.Addr(8*id), 1); err != nil {
							return err
						}
					}
				}
				w.Compute(time.Duration(edgesScanned) * p.edgeCost)
				if cfg.Variant == Optimized {
					// Publish staged discoveries to our aligned buffer.
					w.SetSite("bfs/stage")
					if err := w.WriteUint32(stageBase(id), uint32(len(discovered))); err != nil {
						return err
					}
					if len(discovered) > 0 {
						if err := writeUint32s(w, stageBase(id)+4, discovered); err != nil {
							return err
						}
					}
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				if cfg.Variant == Optimized {
					// Apply phase: the owner of each range applies staged
					// updates locally (reads replicate; writes stay local).
					w.SetSite("bfs/apply")
					localChanged := false
					myNext := make([]byte, r.Hi-r.Lo)
					for t := 0; t < threads; t++ {
						cnt, err := w.ReadUint32(stageBase(t))
						if err != nil {
							return err
						}
						if cnt == 0 {
							continue
						}
						verts, err := readUint32s(w, stageBase(t)+4, int(cnt))
						if err != nil {
							return err
						}
						for _, wv := range verts {
							if int(wv) < r.Lo || int(wv) >= r.Hi {
								continue
							}
							lv, err := w.ReadUint32(levels + dex.Addr(4*wv))
							if err != nil {
								return err
							}
							if lv != 0 {
								continue
							}
							if err := w.WriteUint32(levels+dex.Addr(4*wv), level+1); err != nil {
								return err
							}
							myNext[int(wv)-r.Lo] = 1
							localChanged = true
						}
					}
					w.Compute(time.Duration(threads) * time.Microsecond / 4)
					if len(myNext) > 0 {
						if err := w.Write(nf+dex.Addr(r.Lo), myNext); err != nil {
							return err
						}
					}
					if localChanged {
						// One flag update per thread per level (§V-C).
						w.SetSite("bfs/flag")
						if err := w.WriteUint32(flags+dex.Addr(4*(level-1)), 1); err != nil {
							return err
						}
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
				} else {
					// Clear our slice of the (just consumed) frontier so
					// the buffers can swap; matching barrier count with
					// the Optimized variant's apply phase.
					if len(frontier) > 0 {
						if err := w.Write(cf+dex.Addr(r.Lo), make([]byte, r.Hi-r.Lo)); err != nil {
							return err
						}
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
				}
				// Check the level's flag; stop when nothing was found.
				w.SetSite("bfs/flag-check")
				fl, err := w.ReadUint32(flags + dex.Addr(4*(level-1)))
				if err != nil {
					return err
				}
				if err := bar.Wait(w); err != nil {
					return err
				}
				if fl == 0 {
					return nil
				}
				cf, nf = nf, cf
			}
			return nil
		}
		roiStart = main.Now()
		if err := workerSet(main, cfg, body); err != nil {
			return err
		}
		roiEnd = main.Now()
		main.SetSite("bfs/collect")
		lv, err := readUint32s(main, levels, g.N)
		if err != nil {
			return err
		}
		for v, l := range lv {
			got[v] = int32(l) - 1
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	reached := 0
	for v := range want {
		if got[v] != want[v] {
			return Result{}, fmt.Errorf("bfs: level[%d] = %d, want %d", v, got[v], want[v])
		}
		if got[v] >= 0 {
			reached++
		}
	}
	return cfg.result("bfs", roiEnd-roiStart, report, fmt.Sprintf("src=%d reached=%d", src, reached)), nil
}
