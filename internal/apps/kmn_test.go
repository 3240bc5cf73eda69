package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dex"
)

// kmnFullScan is the rule the worker's search must reproduce, written out on
// its own: each point goes to the first center in index order at the least
// squared distance. It returns every point's center and the accumulator.
func kmnFullScan(pts, ctr []float64, k int) ([]int, []float64) {
	idx := make([]int, len(pts)/kmnDims)
	acc := make([]float64, k*(kmnDims+1))
	for i := range idx {
		x, y, z := pts[i*kmnDims], pts[i*kmnDims+1], pts[i*kmnDims+2]
		best, bestD := 0, math.MaxFloat64
		for c := 0; c < k; c++ {
			dx, dy, dz := x-ctr[c*kmnDims], y-ctr[c*kmnDims+1], z-ctr[c*kmnDims+2]
			if d := dx*dx + dy*dy + dz*dz; d < bestD {
				best, bestD = c, d
			}
		}
		idx[i] = best
		o := best * (kmnDims + 1)
		acc[o] += x
		acc[o+1] += y
		acc[o+2] += z
		acc[o+3]++
	}
	return idx, acc
}

// The shapes FuzzKMNNearest builds its inputs in, as bits of its shape byte.
const (
	kmnGrid       = 1 << iota // coordinates on a coarse grid: exact ties and duplicates
	kmnDupCenters             // every odd center repeats the one before it
	kmnOnCenter               // every fourth point sits exactly on a center
	kmnEdges                  // half the coordinates are 0 or just below 100: the grid's outer cells
)

// checkKMNNearest runs a worker over the points of one chunk on two
// successive center sets, then again on the second with arbitrary hints, and
// requires at every pass each point's center and the accumulator, bit for
// bit, to be the full scan's, and the first pass to fill only the grid cells
// its points land in (at most n of them, not all kmnCells³). kSel 0 is
// k = 256, the most a one-byte hint can name; otherwise k is 1 to 24.
func checkKMNNearest(t *testing.T, seed int64, kSel, shape byte) {
	t.Helper()
	k := int(kSel) % 25
	if k == 0 {
		k = 256
	}
	rng := rand.New(rand.NewSource(seed))
	coord := func(center bool) float64 {
		if shape&kmnEdges != 0 && rng.Intn(2) == 0 {
			return float64(rng.Intn(2)) * math.Nextafter(100, 0)
		}
		if shape&kmnGrid == 0 {
			return rng.Float64() * 100
		}
		if center {
			return float64(rng.Intn(4))
		}
		return float64(rng.Intn(8)) / 2
	}
	dup := func(ctr []float64) {
		if shape&kmnDupCenters != 0 {
			for c := 1; c < k; c += 2 {
				copy(ctr[c*kmnDims:(c+1)*kmnDims], ctr[(c-1)*kmnDims:])
			}
		}
	}
	ctr := make([]float64, k*kmnDims)
	for i := range ctr {
		ctr[i] = coord(true)
	}
	dup(ctr)
	n := 1 + rng.Intn(300)
	pts := make([]float64, n*kmnDims)
	for i := range pts {
		pts[i] = coord(false)
	}
	if shape&kmnOnCenter != 0 {
		for i := 0; i < n; i += 4 {
			c := rng.Intn(k)
			copy(pts[i*kmnDims:(i+1)*kmnDims], ctr[c*kmnDims:])
		}
	}
	// The second center set moves every center a little, as an iteration
	// does, staying in the domain (and on the grid).
	next := make([]float64, len(ctr))
	for i, v := range ctr {
		step := rng.Float64()*4 - 2
		if shape&kmnGrid != 0 {
			step = float64(rng.Intn(3) - 1)
		}
		next[i] = math.Min(math.Max(v+step, 0), 99)
	}
	dup(next)

	kw := newKMNWorker(kmnParams{k: k, chunk: n}, 0, n)
	for i, v := range pts {
		binary.LittleEndian.PutUint64(kw.buf[8*i:], math.Float64bits(v))
	}
	pass := func(name string, ctr []float64) {
		t.Helper()
		kw.setCenters(ctr)
		acc := make([]float64, k*(kmnDims+1))
		kw.assign(acc, 0, n)
		idx, want := kmnFullScan(pts, ctr, k)
		for i, c := range idx {
			if int(kw.hint[i]) != c {
				t.Fatalf("%s: k=%d point %d (%v) got center %d, the full scan %d",
					name, k, i, pts[i*kmnDims:(i+1)*kmnDims], kw.hint[i], c)
			}
		}
		for j := range want {
			if math.Float64bits(acc[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: k=%d acc[%d] = %v, the full scan %v", name, k, j, acc[j], want[j])
			}
		}
	}
	pass("first pass", ctr)
	var used [kmnCells * kmnCells * kmnCells]bool
	for i := 0; i < n; i++ {
		x, y, z := pts[i*kmnDims], pts[i*kmnDims+1], pts[i*kmnDims+2]
		used[(kmnCell(x)*kmnCells+kmnCell(y))*kmnCells+kmnCell(z)] = true
	}
	for i, c := range kw.cell {
		if c != kmnCellEmpty && !used[i] {
			t.Fatalf("first pass: k=%d, %d points, cell %d filled but no point lands in it", k, n, i)
		}
	}
	pass("hinted pass", next)
	for i := range kw.hint {
		kw.hint[i] = uint8(rng.Intn(k))
	}
	pass("arbitrary hints", next)
}

func TestKMNNearestMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, k := range []byte{1, 2, 8, 24, 0} {
			for shape := byte(0); shape < 16; shape++ {
				checkKMNNearest(t, seed, k, shape)
			}
		}
	}
}

// FuzzKMNNearest runs the same property from the fuzzer's inputs; go test
// runs it over testdata/fuzz/FuzzKMNNearest.
func FuzzKMNNearest(f *testing.F) {
	f.Add(int64(1), byte(24), byte(0))
	f.Fuzz(checkKMNNearest)
}

// After warm-up a kmn worker's chunk read plus search and a bp worker's
// replicate of its belief snapshot allocate nothing: both read into a buffer
// the worker keeps and decode in place.
func TestAppsBulkAllocsPerRun(t *testing.T) {
	const k, n = 8, 512
	var kmnAllocs, bpAllocs float64
	_, err := dex.NewCluster(2).Run(func(main *dex.Thread) error {
		points, centers, err := kmnSetup(main, kmnPoints(1), kmnParams{points: n, k: k})
		if err != nil {
			return err
		}
		ctr, err := readFloat64s(main, centers, k*kmnDims)
		if err != nil {
			return err
		}
		kw := newKMNWorker(kmnParams{k: k, chunk: n}, 0, n)
		acc := make([]float64, k*(kmnDims+1))
		for pass := 0; pass < 2; pass++ {
			kw.setCenters(ctr)
			if err := kw.read(main, points, 0, n); err != nil {
				return err
			}
			kw.assign(acc, 0, n)
		}
		kmnAllocs = testing.AllocsPerRun(20, func() {
			if err := kw.read(main, points, 0, n); err != nil {
				t.Error(err)
			}
			kw.assign(acc, 0, n)
		})

		beliefs, err := main.Mmap(4*dex.PageSize, dex.ProtRead|dex.ProtWrite, "beliefs")
		if err != nil {
			return err
		}
		if err := main.Migrate(1); err != nil {
			return err
		}
		snap := make([]byte, 4*dex.PageSize)
		rot := 2 * dex.PageSize
		if err := bpReplicate(main, beliefs, snap, rot); err != nil {
			return err
		}
		bpAllocs = testing.AllocsPerRun(20, func() {
			if err := bpReplicate(main, beliefs, snap, rot); err != nil {
				t.Error(err)
			}
		})
		return main.MigrateBack()
	})
	if err != nil {
		t.Fatal(err)
	}
	if kmnAllocs != 0 {
		t.Errorf("a kmn chunk read plus search allocates %v objects, want 0", kmnAllocs)
	}
	if bpAllocs != 0 {
		t.Errorf("a bp snapshot replicate allocates %v objects, want 0", bpAllocs)
	}
}

// heapDuring is the heap f allocates, read from the run's own thread.
func heapDuring(f func() error) (uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	err := f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before, err
}

// heapMin is the least heap f allocates over three calls, each after a
// collection: an allocation elsewhere in the process, such as one finishing
// behind an earlier test, lands in at most some of the windows.
func heapMin(f func() error) (uint64, error) {
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		h, err := heapDuring(f)
		if err != nil {
			return 0, err
		}
		least = min(least, h)
	}
	return least, nil
}

// Bulk data moves straight between host values and page frames. kmn's setup
// allocates what its pages cost the host — their frames, page tables and
// directory entries, measured as the same mappings filled through a
// WriteFunc that writes nothing — plus at most 64 KiB, and the points it
// writes are the generator's. The typed helpers stage nothing: a write into
// resident pages allocates no bytes, a read only the slice it returns, also
// with a word split across every page boundary. The helpers' windows are
// each the least of three (heapMin).
func TestAppsSetupCopyBudget(t *testing.T) {
	const words = 1 << 18 // 1 MiB of uint32s
	p := kmnParams{points: 64 << 10, k: 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(main func(*dex.Thread) error) {
		t.Helper()
		if _, err := dex.NewCluster(1).Run(main); err != nil {
			t.Fatal(err)
		}
	}
	var pagesHeap, setupHeap, writeHeap, readHeap uint64
	run(func(main *dex.Thread) (err error) {
		pagesHeap, err = heapDuring(func() error {
			for _, n := range []int{8 * kmnDims * p.points, 8 * kmnDims * p.k} {
				addr, err := main.Mmap(uint64(n), dex.ProtRead|dex.ProtWrite, "pages")
				if err != nil {
					return err
				}
				if err := main.WriteFunc(addr, n, func([]byte, int) {}); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	run(func(main *dex.Thread) (err error) {
		var points dex.Addr
		if setupHeap, err = heapDuring(func() (err error) {
			points, _, err = kmnSetup(main, kmnPoints(1), p)
			return err
		}); err != nil {
			return err
		}
		next, wrong := kmnPoints(1), 0
		if err := readWords(main, points, p.points*kmnDims, 8, func(i int, w uint64) {
			if math.Float64frombits(w) != next() {
				wrong++
			}
		}); err != nil {
			return err
		}
		if wrong != 0 {
			t.Errorf("%d point words differ from the generator's", wrong)
		}

		vals := make([]uint32, words)
		for i := range vals {
			vals[i] = uint32(i * 2654435761)
		}
		buf, err := main.Mmap(4*words+dex.PageSize, dex.ProtRead|dex.ProtWrite, "words")
		if err != nil {
			return err
		}
		addr := buf + 3 // every page ends inside a word
		if err := main.WriteFunc(addr, 4*words, func([]byte, int) {}); err != nil {
			return err
		}
		if writeHeap, err = heapMin(func() error { return writeUint32s(main, addr, vals) }); err != nil {
			return err
		}
		var got []uint32
		if readHeap, err = heapMin(func() (err error) { got, err = readUint32s(main, addr, words); return err }); err != nil {
			return err
		}
		if !slices.Equal(got, vals) {
			t.Error("readUint32s did not return what writeUint32s stored")
		}
		return nil
	})
	t.Logf("kmnSetup %d bytes, its pages alone %d; write %d bytes, read %d", setupHeap, pagesHeap, writeHeap, readHeap)
	if setupHeap > pagesHeap+64<<10 {
		t.Errorf("kmnSetup of %d points allocates %d bytes, want at most its pages' %d plus 64 KiB", p.points, setupHeap, pagesHeap)
	}
	if writeHeap != 0 {
		t.Errorf("writeUint32s of 1 MiB into resident pages allocates %d bytes, want 0", writeHeap)
	}
	if want := uint64(4 * words); readHeap < want || readHeap > want+want/100 {
		t.Errorf("readUint32s of 1 MiB allocates %d bytes, want the %d of the slice it returns, within 1 %%", readHeap, want)
	}
}

// kmnReferenceScan is the oracle of kmnReference: the sequential k-means
// with every point assigned by the plain full scan.
func kmnReferenceScan(next func() float64, p kmnParams) []float64 {
	pts := make([]float64, p.points*kmnDims)
	for i := range pts {
		pts[i] = next()
	}
	centers := make([]float64, p.k*kmnDims)
	copy(centers, pts[:p.k*kmnDims])
	for iter := 0; iter < p.iters; iter++ {
		_, acc := kmnFullScan(pts, centers, p.k)
		for c := 0; c < p.k; c++ {
			cnt := acc[c*(kmnDims+1)+kmnDims]
			if cnt > 0 {
				for d := 0; d < kmnDims; d++ {
					centers[c*kmnDims+d] = acc[c*(kmnDims+1)+d] / cnt
				}
			}
		}
	}
	return centers
}

// TestKMNReferenceMatchesScan requires kmnReference's centers, bit for bit,
// to be the full scan's: at test size for seeds 1–20, at full size for
// seeds 1 and 2, and on tie-heavy points.
func TestKMNReferenceMatchesScan(t *testing.T) {
	check := func(name string, points func() func() float64, p kmnParams) {
		t.Helper()
		got, want := kmnReference(points(), p), kmnReferenceScan(points(), p)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: center component %d = %v, the full scan's %v", name, i, got[i], want[i])
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		check(fmt.Sprintf("test size, seed %d", seed), func() func() float64 { return kmnPoints(seed) }, kmnSizes(SizeTest))
	}
	for seed := int64(1); seed <= 2; seed++ {
		check(fmt.Sprintf("full size, seed %d", seed), func() func() float64 { return kmnPoints(seed) }, kmnSizes(SizeFull))
	}
	check("tie-heavy points", kmnTiePoints, kmnTieParams)
}

var benchCenters []float64

// BenchmarkKMNReference builds kmn's full-size reference at seed 1, what a
// process pays once before its first full-size kmn run.
func BenchmarkKMNReference(b *testing.B) {
	p := kmnSizes(SizeFull)
	for i := 0; i < b.N; i++ {
		benchCenters = kmnReference(kmnPoints(1), p)
	}
}
