// Package graph provides the graph substrate for the Polymer-style
// applications (BFS and belief propagation): a Graph500-configured R-MAT
// generator (α=0.57, β=0.19 — the configuration the paper uses via Ligra's
// generator), a compressed sparse row representation, partitioning helpers,
// and reference algorithms for verifying the distributed implementations.
package graph

import (
	"math/rand"
	"slices"
)

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
// The CSR is built by counting sort on the source — degrees are counted as
// the edges are drawn, destinations scattered to their source's slot — and
// each adjacency list is then sorted on its own: sorting the whole edge
// array by (src, dst) gives the same CSR at several times the cost.
func RMAT(seed int64, n, m int) *CSR {
	const (
		a = 0.57
		b = 0.19
		c = 0.19
	)
	levels := 0
	size := 1
	for size < n {
		size <<= 1
		levels++
	}
	g := &CSR{
		N:       size,
		Offsets: make([]uint64, size+1),
		Edges:   make([]uint32, m),
	}
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]uint32, m)
	dsts := make([]uint32, m)
	for i := range srcs {
		var src, dst uint32
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << uint(l)
			case r < a+b+c:
				src |= 1 << uint(l)
			default:
				src |= 1 << uint(l)
				dst |= 1 << uint(l)
			}
		}
		srcs[i], dsts[i] = src, dst
		g.Offsets[src+1]++
	}
	for v := 0; v < size; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	cursor := make([]uint64, size)
	copy(cursor, g.Offsets[:size])
	for i, src := range srcs {
		g.Edges[cursor[src]] = dsts[i]
		cursor[src]++
	}
	for v := 0; v < size; v++ {
		slices.Sort(g.Neighbors(v))
	}
	return g
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
