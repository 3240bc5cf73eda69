package radix

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(0); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete(7) {
		t.Fatal("Delete on empty tree returned true")
	}
	tr.ForEach(func(uint64, *int) bool {
		t.Fatal("ForEach visited an entry in an empty tree")
		return false
	})
}

func TestSetGetDelete(t *testing.T) {
	var tr Tree[string]
	keys := []uint64{0, 1, 511, 512, 513, 1 << 18, 1 << 27, MaxKey}
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = string(rune('a' + i))
		tr.Set(k, &vals[i])
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := tr.Get(k)
		if !ok || v != &vals[i] {
			t.Fatalf("Get(%d) = %v,%v, want the pointer stored", k, v, ok)
		}
	}
	// Overwrite.
	z := "z"
	tr.Set(511, &z)
	if v, _ := tr.Get(511); v != &z {
		t.Fatalf("overwrite failed: %v", v)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len changed on overwrite: %d", tr.Len())
	}
	// Delete all.
	for _, k := range keys {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
		if tr.Delete(k) {
			t.Fatalf("double Delete(%d) = true", k)
		}
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatalf("tree not pruned: len=%d root=%v", tr.Len(), tr.root)
	}
}

func TestGetOrCreate(t *testing.T) {
	var tr Tree[int]
	calls := 0
	v, existed := tr.GetOrCreate(42, func() *int { calls++; return ptr(7) })
	if existed || *v != 7 || calls != 1 {
		t.Fatalf("first GetOrCreate: v=%d existed=%v calls=%d", *v, existed, calls)
	}
	w, existed := tr.GetOrCreate(42, func() *int { calls++; return ptr(9) })
	if !existed || w != v || calls != 1 {
		t.Fatalf("second GetOrCreate: v=%d existed=%v calls=%d", *w, existed, calls)
	}
}

func TestForEachOrdered(t *testing.T) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(7))
	want := make(map[uint64]int)
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Int63n(MaxKey + 1))
		tr.Set(k, ptr(i))
		want[k] = i
	}
	var keys []uint64
	tr.ForEach(func(k uint64, v *int) bool {
		if want[k] != *v {
			t.Fatalf("value mismatch at %d: %d vs %d", k, *v, want[k])
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != len(want) {
		t.Fatalf("visited %d keys, want %d", len(keys), len(want))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("ForEach not in ascending order")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	var tr Tree[int]
	for i := uint64(0); i < 100; i++ {
		tr.Set(i, ptr(int(i)))
	}
	n := 0
	tr.ForEach(func(uint64, *int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestForRange(t *testing.T) {
	var tr Tree[int]
	for i := uint64(0); i < 4096; i += 3 {
		tr.Set(i, ptr(int(i)))
	}
	var got []uint64
	tr.ForRange(510, 1030, func(k uint64, _ *int) bool {
		got = append(got, k)
		return true
	})
	for _, k := range got {
		if k < 510 || k > 1030 || k%3 != 0 {
			t.Fatalf("unexpected key %d in range scan", k)
		}
	}
	wantN := 0
	for i := uint64(0); i < 4096; i += 3 {
		if i >= 510 && i <= 1030 {
			wantN++
		}
	}
	if len(got) != wantN {
		t.Fatalf("range scan returned %d keys, want %d", len(got), wantN)
	}
}

func TestForRangeEmptyInterval(t *testing.T) {
	var tr Tree[int]
	tr.Set(5, ptr(5))
	tr.ForRange(10, 4, func(uint64, *int) bool {
		t.Fatal("visited entry in inverted range")
		return false
	})
}

func TestKeyTooLargePanics(t *testing.T) {
	var tr Tree[int]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized key")
		}
	}()
	tr.Set(MaxKey+1, ptr(0))
}

// A nil value would read back as absent, so Set refuses it.
func TestSetNilPanics(t *testing.T) {
	var tr Tree[int]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a nil value")
		}
		if tr.Len() != 0 || tr.root != nil {
			t.Fatalf("a refused Set changed the tree: len=%d root=%v", tr.Len(), tr.root)
		}
	}()
	tr.Set(7, nil)
}

// TestQuickAgainstMap property-tests the tree against a reference map under
// a random operation sequence, then a full and a partial walk.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val int
		Del bool
	}, lo, hi uint64) bool {
		var tr Tree[int]
		ref := make(map[uint64]int)
		for _, op := range ops {
			k := op.Key % (MaxKey + 1)
			if op.Del {
				d1 := tr.Delete(k)
				_, d2 := ref[k]
				if d1 != d2 {
					return false
				}
				delete(ref, k)
			} else {
				tr.Set(k, ptr(op.Val))
				ref[k] = op.Val
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || *got != v {
				return false
			}
		}
		seen := 0
		tr.ForEach(func(k uint64, v *int) bool {
			if rv, ok := ref[k]; !ok || rv != *v {
				t.Errorf("ForEach produced stale entry %d=%d", k, *v)
			}
			seen++
			return true
		})
		lo, hi = lo%(MaxKey+1), hi%(MaxKey+1)
		lo, hi = min(lo, hi), max(lo, hi)
		var inRange []uint64
		for k := range ref {
			if lo <= k && k <= hi {
				inRange = append(inRange, k)
			}
		}
		slices.Sort(inRange)
		var walked []uint64
		tr.ForRange(lo, hi, func(k uint64, _ *int) bool {
			walked = append(walked, k)
			return true
		})
		return seen == len(ref) && slices.Equal(walked, inRange)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDensePopulationAndPruning(t *testing.T) {
	var tr Tree[int]
	const n = 10000
	vals := make([]int, n)
	for i := uint64(0); i < n; i++ {
		vals[i] = int(i)
		tr.Set(i, &vals[i])
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tr.Get(i); !ok || v != &vals[i] {
			t.Fatalf("Get(%d) = %v,%v", i, v, ok)
		}
	}
	for i := uint64(0); i < n; i++ {
		tr.Delete(i)
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatal("tree not fully pruned after deleting everything")
	}
}

// TestSetDeleteCycleReusesNodes: a key that comes and goes in an otherwise
// empty tree costs no node.
func TestSetDeleteCycleReusesNodes(t *testing.T) {
	var tr Tree[int]
	v := ptr(1)
	tr.Set(12345, v)
	tr.Delete(12345)
	if tr.root != nil || len(tr.spare) != levels {
		t.Fatalf("after one cycle: root=%v, %d spare nodes", tr.root, len(tr.spare))
	}
	if got := testing.AllocsPerRun(100, func() {
		tr.Set(1<<30, v)
		tr.Delete(1 << 30)
	}); got != 0 {
		t.Fatalf("Set+Delete allocates %v objects, want 0", got)
	}
}

// TestSetExistingPathAllocsPerRun: a Set whose path exists — an overwrite, or
// a new key beside others in its leaf — stores the caller's pointer and
// allocates nothing.
func TestSetExistingPathAllocsPerRun(t *testing.T) {
	var tr Tree[int]
	v, w := ptr(1), ptr(2)
	tr.Set(1<<20, v)
	if got := testing.AllocsPerRun(100, func() {
		tr.Set(1<<20, w)
		tr.Set(1<<20+1, v)
	}); got != 0 {
		t.Fatalf("Set on an existing path allocates %v objects, want 0", got)
	}
}

func ptr(v int) *int { return &v }

func BenchmarkRadixSet(b *testing.B) {
	var tr Tree[int]
	v := ptr(1)
	for i := 0; i < b.N; i++ {
		tr.Set(uint64(i)&MaxKey, v)
	}
}

func BenchmarkRadixGet(b *testing.B) {
	var tr Tree[int]
	v := ptr(1)
	for i := uint64(0); i < 1<<16; i++ {
		tr.Set(i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) & (1<<16 - 1))
	}
}
