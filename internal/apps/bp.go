package apps

import (
	"fmt"
	"math"
	"time"

	"dex"
	"dex/internal/graph"
)

// bpParams sizes the Polymer belief-propagation workload: an iterative
// pull-style vertex program that streams the whole edge list every
// iteration. BP is memory-bandwidth bound on a single machine (the paper
// found its CPUs underutilized and attributes the super-linear speedup to
// relieving memory-channel pressure), so the per-edge byte traffic here is
// what dominates.
type bpParams struct {
	vertices     int
	edges        int
	iters        int
	damping      float64
	edgeCost     time.Duration
	bytesPerEdge int
	chunk        int // vertices per processing chunk
}

func bpSizes(s Size) bpParams {
	switch s {
	case SizeFull:
		return bpParams{vertices: 65536, edges: 4_000_000, iters: 6, damping: 0.5,
			edgeCost: 20 * time.Nanosecond, bytesPerEdge: 128, chunk: 1024}
	default:
		return bpParams{vertices: 2048, edges: 16_000, iters: 3, damping: 0.5,
			edgeCost: 20 * time.Nanosecond, bytesPerEdge: 128, chunk: 256}
	}
}

// bpCacheBytes models the per-node last-level cache, sized so that the
// full-size graph just spills out of it on one node. BP streams the graph
// without locality, so DRAM traffic per edge follows the per-node working
// set: once the graph is split across nodes, each slice largely fits and
// roughly half the accesses stop reaching DRAM — the effect behind the
// paper's super-linear 1->2 node speedup (§V-B: "the limiting resource is
// memory channel bandwidth" and the single-node CPUs were underutilized).
const bpCacheBytes = 18 << 20

func bpEffectiveBytes(p bpParams, nodes int) int {
	workingSet := float64(4*p.edges+2*8*p.vertices) / float64(nodes)
	missRatio := workingSet / bpCacheBytes
	if missRatio > 1 {
		missRatio = 1
	}
	if missRatio < 0.5 {
		missRatio = 0.5
	}
	return int(float64(p.bytesPerEdge) * missRatio)
}

// bpInput is what a BP run derives from (size, seed): the transposed R-MAT
// graph the workers pull over and the reference beliefs. Read-only.
type bpInput struct {
	tr   *graph.CSR
	want []float64
}

var bpInputs derived[*bpInput]

func bpInputOf(cfg Config) *bpInput {
	return bpInputs.get(cfg, func() *bpInput {
		p := bpSizes(cfg.Size)
		g := graph.RMAT(cfg.Seed, p.vertices, p.edges)
		want, _ := graph.PropagateRef(g, p.iters, p.damping, 0) // fixed iterations
		return &bpInput{tr: g.Transpose(), want: want}
	})
}

// RunBP runs belief propagation: every iteration each vertex's belief
// becomes a damped average of its in-neighbors' beliefs (pull over the
// transposed graph, Polymer's per-node layout).
//
// Initial pathologies: the double-buffered belief arrays are packed, so
// partition boundaries false-share, and the framework's per-thread progress
// objects are packed onto one page and updated per chunk. Optimized (§V-C):
// per-thread belief partitions padded to page boundaries and progress kept
// thread-local.
//
// On the host the workers on a node share one snapshot of the beliefs, as
// they share the node's read replica of each page. Each still replicates it
// every iteration, with the same faults and charges; the beliefs read are
// not written between two barriers, so the node's replicates of an
// iteration all write the same bytes, and one landing while another worker
// gathers changes nothing it reads. Each worker keeps its in-neighbors as
// slots of the snapshot, so an edge's gather is one decode.
func RunBP(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := bpSizes(cfg.Size)
	in := bpInputOf(cfg)
	tr, want := in.tr, in.want
	effBytes := bpEffectiveBytes(p, cfg.Nodes)

	cluster := cfg.cluster()
	got := make([]float64, tr.N)
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("bp/setup")
		// Transposed adjacency in shared memory.
		offsets, err := main.Mmap(uint64(8*(tr.N+1)), dex.ProtRead|dex.ProtWrite, "in-offsets")
		if err != nil {
			return err
		}
		if err := writeUint64s(main, offsets, tr.Offsets); err != nil {
			return err
		}
		edges, err := main.Mmap(uint64(4*tr.M()+8), dex.ProtRead|dex.ProtWrite, "in-edges")
		if err != nil {
			return err
		}
		if err := writeUint32s(main, edges, tr.Edges); err != nil {
			return err
		}
		// Belief arrays, double buffered; beliefAt maps vertex -> address.
		ranges, partBase := bpLayout(tr, threads, cfg.Variant)
		bufBytes := partBase[threads]
		// slotOf maps a vertex to its float's index in a belief buffer.
		slotOf := make([]uint32, tr.N)
		for t, r := range ranges {
			for v := r.Lo; v < r.Hi; v++ {
				slotOf[v] = uint32(int(partBase[t]/8) + v - r.Lo)
			}
		}
		bufA, err := main.Mmap(bufBytes, dex.ProtRead|dex.ProtWrite, "beliefs-a")
		if err != nil {
			return err
		}
		bufB, err := main.Mmap(bufBytes, dex.ProtRead|dex.ProtWrite, "beliefs-b")
		if err != nil {
			return err
		}
		beliefAt := func(buf dex.Addr, v int) dex.Addr { return buf + dex.Addr(8*slotOf[v]) }
		// Initialize beliefs to 1.0.
		for t, r := range ranges {
			if r.Hi == r.Lo {
				continue
			}
			ones := make([]float64, r.Hi-r.Lo)
			for i := range ones {
				ones[i] = 1
			}
			if err := writeFloat64s(main, bufA+dex.Addr(partBase[t]), ones); err != nil {
				return err
			}
		}
		// Initial pathology: packed per-thread progress objects.
		progress, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-progress")
		if err != nil {
			return err
		}
		bar, err := dex.NewBarrier(main, threads)
		if err != nil {
			return err
		}
		// One snapshot buffer a node, shared by the node's workers.
		snaps := make([]byte, cfg.Nodes*int(bufBytes))

		body := func(w *dex.Thread, id int) error {
			r := ranges[id]
			cur, next := bufA, bufB
			// Load the partition's in-adjacency once (read-only).
			w.SetSite("bp/graph-load")
			offs, err := readUint64s(w, offsets+dex.Addr(8*r.Lo), r.Hi-r.Lo+1)
			if err != nil {
				return err
			}
			// Each in-neighbor is kept as its slot in the snapshot.
			var adj []uint32
			if r.Hi > r.Lo && offs[len(offs)-1] > offs[0] {
				adj = make([]uint32, offs[len(offs)-1]-offs[0])
				if err := readWords(w, edges+dex.Addr(4*offs[0]), len(adj), 4, func(i int, v uint64) {
					adj[i] = slotOf[v]
				}); err != nil {
					return err
				}
			}
			out := make([]float64, 0, p.chunk)
			// The node's snapshot, decoded where it is read; own+u is the
			// slot of the partition's vertex u.
			node := nodeOf(id, threads, cfg.Nodes)
			snap := snaps[node*int(bufBytes) : (node+1)*int(bufBytes)]
			own := int(partBase[id]/8) - r.Lo
			rot := int(partBase[id]) &^ (dex.PageSize - 1)
			for iter := 0; iter < p.iters; iter++ {
				if err := bpReplicate(w, cur, snap, rot); err != nil {
					return err
				}
				for v := r.Lo; v < r.Hi; v += p.chunk {
					hi := v + p.chunk
					if hi > r.Hi {
						hi = r.Hi
					}
					out = out[:0]
					chunkEdges := 0
					w.SetSite("bp/gather")
					for u := v; u < hi; u++ {
						lo, hh := offs[u-r.Lo]-offs[0], offs[u-r.Lo+1]-offs[0]
						chunkEdges += int(hh - lo)
						nv := (1 - p.damping) * f64At(snap, own+u)
						if hh > lo {
							sum := 0.0
							for _, slot := range adj[lo:hh] {
								sum += f64At(snap, int(slot))
							}
							nv += p.damping * sum / float64(hh-lo)
						}
						out = append(out, nv)
					}
					// The streaming work: compute plus the DRAM traffic
					// that misses the per-node cache (beliefs + edge list).
					w.Work(time.Duration(chunkEdges)*p.edgeCost, chunkEdges*effBytes)
					w.SetSite("bp/scatter")
					if len(out) > 0 {
						if err := writeFloat64s(w, beliefAt(next, v), out); err != nil {
							return err
						}
					}
					if cfg.Variant != Optimized {
						// Pathology: bump the packed per-thread progress
						// objects, one update per 256 vertices processed
						// (Polymer's framework counters).
						w.SetSite("bp/progress")
						for done := v; done < hi; done += 256 {
							if _, err := w.AddUint64(progress+dex.Addr(8*id), 256); err != nil {
								return err
							}
						}
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
		main.SetSite("bp/collect")
		final := bufA
		if p.iters%2 == 1 {
			final = bufB
		}
		for t, r := range ranges {
			if r.Hi == r.Lo {
				continue
			}
			part, err := readFloat64s(main, final+dex.Addr(partBase[t]), r.Hi-r.Lo)
			if err != nil {
				return err
			}
			copy(got[r.Lo:r.Hi], part)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
			return Result{}, fmt.Errorf("bp: belief[%d] = %g, want %g", v, got[v], want[v])
		}
	}
	return cfg.result("bp", roiEnd-roiStart, report, checksumFloats(got, 1e-6)), nil
}

// bpLayout splits tr's vertices into one range a thread and places them in
// a belief buffer: partBase[t] is the byte offset of thread t's partition,
// partBase[threads] the buffer's size. Optimized pads each partition to
// page boundaries.
func bpLayout(tr *graph.CSR, threads int, v Variant) (ranges []graph.Range, partBase []uint64) {
	ranges = tr.EdgeBalancedRanges(threads)
	partBase = make([]uint64, threads+1)
	for t, r := range ranges {
		sz := uint64(8 * (r.Hi - r.Lo))
		if v == Optimized {
			sz = (sz + dex.PageSize - 1) / dex.PageSize * dex.PageSize
		}
		partBase[t+1] = partBase[t] + sz
	}
	return ranges, partBase
}

// bpReplicate copies the belief buffer at buf into snap through read
// replicas (read-only for the iteration). Each worker starts at byte rot,
// its own partition's page, and wraps around, so the page-fault leaders are
// spread across workers instead of hitting every page in lockstep.
func bpReplicate(w *dex.Thread, buf dex.Addr, snap []byte, rot int) error {
	w.SetSite("bp/replicate")
	if err := w.ReadReplicate(buf+dex.Addr(rot), snap[rot:]); err != nil {
		return err
	}
	if rot > 0 {
		return w.ReadReplicate(buf, snap[:rot])
	}
	return nil
}
