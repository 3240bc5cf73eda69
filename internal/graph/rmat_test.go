package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// rmatSortReference is RMAT as it was before the counting-sort build: draw
// every edge, sort the whole (src, dst) array, lay it out as a CSR. Kept as
// the reference RMAT must reproduce exactly.
func rmatSortReference(seed int64, n, m int) *CSR {
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
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ src, dst uint32 }
	edges := make([]edge, m)
	for i := range edges {
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
		edges[i] = edge{src: src, dst: dst}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})
	g := &CSR{
		N:       size,
		Offsets: make([]uint64, size+1),
		Edges:   make([]uint32, m),
	}
	for i, e := range edges {
		g.Offsets[e.src+1]++
		g.Edges[i] = e.dst
	}
	for v := 0; v < size; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

func checkRMATMatchesReference(t *testing.T, seed int64, n, m int) {
	t.Helper()
	got, want := RMAT(seed, n, m), rmatSortReference(seed, n, m)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RMAT(%d, %d, %d) differs from the sort-based reference (N %d/%d, M %d/%d)",
			seed, n, m, got.N, want.N, got.M(), want.M())
	}
}

func TestRMATMatchesSortReference(t *testing.T) {
	shapes := []struct{ n, m int }{
		{0, 0}, {1, 0}, {1, 9}, {2, 1}, {3, 17}, {8, 0}, {64, 64},
		{1000, 8000}, {1024, 8000}, {2048, 16000}, {5000, 3}, {16, 20000},
	}
	for _, seed := range []int64{0, 1, 2, 7, 23, -5, 1 << 40} {
		for _, s := range shapes {
			checkRMATMatchesReference(t, seed, s.n, s.m)
		}
	}
}

// FuzzRMAT compares RMAT with the sort-based reference on fuzzed seeds and
// shapes; the uint16 arguments keep a case under a few milliseconds.
func FuzzRMAT(f *testing.F) {
	f.Add(int64(1), uint16(2048), uint16(16000))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16) {
		checkRMATMatchesReference(t, seed, int(n), int(m))
	})
}

var benchGraph *CSR

// BenchmarkRMAT generates bp's full-size graph (apps.bpSizes(SizeFull)).
func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGraph = RMAT(1, 65536, 4_000_000)
	}
}
