package graph

import (
	"math/rand"
	"reflect"
	"runtime"
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

// TestRMATCutsMatchFloat64 feeds the per-level step chosen Int63 draws —
// every value within 1024 of each cut, and the top 1024 values below 2^63 —
// and requires it to classify each as rand.Float64's float64(x)/2^63 does
// against a, a+b and a+b+c, and to redraw exactly where Float64 would.
func TestRMATCutsMatchFloat64(t *testing.T) {
	const (
		a = 0.57
		b = 0.19
		c = 0.19
	)
	cuts := newRMATCuts()
	var xs []int64
	for _, cut := range cuts {
		for x := cut - 1024; x <= cut+1024; x++ {
			if x >= 0 {
				xs = append(xs, x)
			}
		}
	}
	for x := int64(1<<63 - 1024); x > 0; x++ { // stops at the wrap past 2^63−1
		xs = append(xs, x)
	}
	for _, x := range xs {
		r := float64(x) / (1 << 63)
		if redraw := x >= cuts[3]; redraw != (r == 1) {
			t.Fatalf("x = %d: redraw %v, Float64 gives %v", x, redraw, r)
		}
		if r == 1 {
			continue
		}
		var src, dst uint32
		switch {
		case r < a:
		case r < a+b:
			dst = 1
		case r < a+b+c:
			src = 1
		default:
			src, dst = 1, 1
		}
		if s, d := cuts.bits(x); s != src || d != dst {
			t.Fatalf("x = %d (r = %v): bits (%d, %d), Float64's compares (%d, %d)", x, r, s, d, src, dst)
		}
	}
}

// TestRMATCopyBudget holds RMAT to three m-sized uint32 arrays (the
// sources, which become the edges, the destinations, and the sources
// grouped by destination) and at most four vertex-sized uint64 ones (it
// uses three): a fourth
// m-sized array fails it.
func TestRMATCopyBudget(t *testing.T) {
	const n, m = 65536, 4_000_000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	benchGraph = RMAT(1, n, m)
	runtime.ReadMemStats(&ms)
	heap, budget := ms.TotalAlloc-before, uint64(12*m+32*(n+1))
	t.Logf("RMAT(1, %d, %d) allocates %d bytes, budget %d", n, m, heap, budget)
	if heap > budget {
		t.Errorf("RMAT(1, %d, %d) allocates %d bytes, want at most 12·m + 32·(size+1) = %d", n, m, heap, budget)
	}
}
