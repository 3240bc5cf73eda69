// Package graph provides the graph substrate for the Polymer-style
// applications (BFS and belief propagation): a Graph500-configured R-MAT
// generator (α=0.57, β=0.19 — the configuration the paper uses via Ligra's
// generator), a compressed sparse row representation, partitioning helpers,
// and reference algorithms for verifying the distributed implementations.
package graph

import "math/rand"

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	N       int      // number of vertices
	Offsets []uint64 // len N+1; edges of v are Edges[Offsets[v]:Offsets[v+1]]
	Edges   []uint32
}

// M returns the number of edges.
func (g *CSR) M() int { return len(g.Edges) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns the out-neighbors of v (a view, do not modify).
func (g *CSR) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// RMAT generates an R-MAT graph with n vertices (rounded up to a power of
// two) and m directed edges using the Graph500 parameters a=0.57, b=0.19,
// c=0.19, d=0.05. Duplicate edges are kept (as Graph500 does); self loops
// are permitted. Edges within each adjacency list are sorted.
//
// Each level of an edge takes one Int63 draw, classified against integer
// cuts equal to the float compares of rand.Float64's value (rmatCuts).
// The CSR is built by two counting passes and no sort: the sources are
// grouped by destination, then each destination, in ascending order, is
// handed to its source's slot, so every adjacency list comes out sorted.
func RMAT(seed int64, n, m int) *CSR {
	levels := 0
	size := 1
	for size < n {
		size <<= 1
		levels++
	}
	cuts := newRMATCuts()
	rng := rand.NewSource(seed)
	g := &CSR{N: size, Offsets: make([]uint64, size+1)}
	srcs := make([]uint32, m)
	dsts := make([]uint32, m)
	byDst := make([]uint64, size+1) // per destination: a count, then where its sources start in bySrc, then end
	for i := range srcs {
		var src, dst uint32
		for l := 0; l < levels; l++ {
			x := rng.Int63()
			for x >= cuts[3] {
				x = rng.Int63()
			}
			s, d := cuts.bits(x)
			src |= s << l
			dst |= d << l
		}
		srcs[i], dsts[i] = src, dst
		g.Offsets[src+1]++
		byDst[dst+1]++
	}
	for v := 0; v < size; v++ {
		g.Offsets[v+1] += g.Offsets[v]
		byDst[v+1] += byDst[v]
	}
	bySrc := make([]uint32, m) // the sources, grouped by destination
	for i, dst := range dsts {
		bySrc[byDst[dst]] = srcs[i]
		byDst[dst]++
	}
	g.Edges = srcs // srcs is read no more: its array becomes the edges
	cursor := make([]uint64, size)
	copy(cursor, g.Offsets[:size])
	lo := uint64(0)
	for dst := 0; dst < size; dst++ {
		for _, src := range bySrc[lo:byDst[dst]] {
			g.Edges[cursor[src]] = uint32(dst)
			cursor[src]++
		}
		lo = byDst[dst]
	}
	return g
}

// rmatCuts are the least Int63 values x for which float64(x)/2^63, what
// rand.Float64 makes of x, is at least a, a+b, a+b+c and 1: a draw of 1 or
// more is drawn again, as Float64 does.
type rmatCuts [4]int64

func newRMATCuts() rmatCuts {
	const a, b, c = 0.57, 0.19, 0.19
	var cuts rmatCuts
	for i, t := range [4]float64{a, a + b, a + b + c, 1} {
		t *= 1 << 63 // exact: a power-of-two scaling
		x := uint64(t)
		for float64(x-1) >= t {
			x--
		}
		cuts[i] = int64(x)
	}
	return cuts
}

// bits returns the source and destination bits a draw x below cuts[3] sets
// at one level: none under a, the destination's under a+b, the source's
// under a+b+c, both above. ge is 1 where x is at least a cut, 0 elsewhere,
// without a branch.
func (cuts *rmatCuts) bits(x int64) (src, dst uint32) {
	ge := func(cut int64) uint32 { return uint32(uint64(cut-1-x) >> 63) }
	src = ge(cuts[1])
	return src, ge(cuts[0]) - src + ge(cuts[2])
}

// Transpose returns the reversed graph (in-edges become out-edges), used by
// pull-style vertex programs.
func (g *CSR) Transpose() *CSR {
	t := &CSR{
		N:       g.N,
		Offsets: make([]uint64, g.N+1),
		Edges:   make([]uint32, g.M()),
	}
	for _, w := range g.Edges {
		t.Offsets[w+1]++
	}
	for v := 0; v < g.N; v++ {
		t.Offsets[v+1] += t.Offsets[v]
	}
	cursor := make([]uint64, g.N)
	copy(cursor, t.Offsets[:g.N])
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			t.Edges[cursor[w]] = uint32(v)
			cursor[w]++
		}
	}
	return t
}

// Range is a half-open vertex interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// EdgeBalancedRanges splits the vertex set into parts intervals with
// approximately equal edge counts — the partitioning NUMA-aware frameworks
// like Polymer use to balance per-node work on skewed graphs.
func (g *CSR) EdgeBalancedRanges(parts int) []Range {
	out := make([]Range, parts)
	v := 0
	for i := 0; i < parts; i++ {
		lo := v
		if i == parts-1 {
			v = g.N
		} else {
			bound := uint64(float64(g.M()) * float64(i+1) / float64(parts))
			for v < g.N && g.Offsets[v+1] <= bound {
				v++
			}
		}
		out[i] = Range{Lo: lo, Hi: v}
	}
	return out
}

// BFSLevels is the reference breadth-first search: it returns the BFS level
// of every vertex from src, or -1 for unreachable vertices.
func BFSLevels(g *CSR, src int) []int32 {
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	frontier := []int{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if levels[w] == -1 {
					levels[w] = depth
					next = append(next, int(w))
				}
			}
		}
		frontier = next
	}
	return levels
}

// MaxDegreeVertex returns the vertex with the largest out-degree (a good
// BFS source on R-MAT graphs, which have many isolated vertices).
func (g *CSR) MaxDegreeVertex() int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// PropagateRef is the reference implementation of the belief-propagation
// style vertex program used by the BP application: each iteration every
// vertex's belief becomes a damped average of its in-neighbors' beliefs.
// It runs iters iterations (or stops early when converged below eps) over
// the reversed graph implied by CSR out-edges and returns the final
// beliefs and the iteration count executed.
func PropagateRef(g *CSR, iters int, damping, eps float64) ([]float64, int) {
	cur := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range cur {
		cur[i] = 1.0
	}
	it := 0
	for ; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		counts := make([]int, g.N)
		for v := 0; v < g.N; v++ {
			b := cur[v]
			for _, w := range g.Neighbors(v) {
				next[w] += b
				counts[w]++
			}
		}
		maxDelta := 0.0
		for v := 0; v < g.N; v++ {
			nv := (1 - damping) * cur[v]
			if counts[v] > 0 {
				nv += damping * next[v] / float64(counts[v])
			}
			if d := nv - cur[v]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			next[v] = nv
		}
		cur, next = next, cur
		if maxDelta < eps {
			it++
			break
		}
	}
	return cur, it
}
