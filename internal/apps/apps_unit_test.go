package apps

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dex"
)

func TestCountStarting(t *testing.T) {
	key := []byte("ab1")
	tests := []struct {
		buf   string
		limit int
		want  int
	}{
		{"ab1 xx ab1", 10, 2},
		{"ab1 xx ab1", 7, 1}, // second match starts at 7, excluded
		{"ab1 xx ab1", 8, 2}, // start 7 < 8 included
		{"xxab1", 2, 1},      // starts at 2, limit 2 excludes... start must be < limit
		{"", 0, 0},
		{"ab1ab1ab1", 9, 3},
		{"ab", 2, 0},
	}
	for _, tt := range tests {
		got := countStarting([]byte(tt.buf), key, tt.limit)
		want := tt.want
		if tt.buf == "xxab1" {
			want = 0 // match start 2 is not < limit 2
		}
		if got != want {
			t.Errorf("countStarting(%q, limit=%d) = %d, want %d", tt.buf, tt.limit, got, want)
		}
	}
}

func TestBlackScholesKnownValue(t *testing.T) {
	// Standard textbook case: S=100, K=100, r=5%, v=20%, T=1y -> C≈10.4506.
	got := blackScholes(100, 100, 0.05, 0.2, 1)
	if math.Abs(got-10.4506) > 1e-3 {
		t.Fatalf("blackScholes = %v, want ~10.4506", got)
	}
	// An absurdly deep in-the-money call is worth ~S - K*e^{-rT}.
	deep := blackScholes(1000, 1, 0.05, 0.2, 1)
	if math.Abs(deep-(1000-math.Exp(-0.05))) > 1e-6 {
		t.Fatalf("deep ITM = %v", deep)
	}
}

func TestCNDFSymmetry(t *testing.T) {
	for _, x := range []float64{0, 0.5, 1, 2.3} {
		if s := cndf(x) + cndf(-x); math.Abs(s-1) > 1e-12 {
			t.Fatalf("cndf(%v)+cndf(-%v) = %v", x, x, s)
		}
	}
	if math.Abs(cndf(0)-0.5) > 1e-12 {
		t.Fatal("cndf(0) != 0.5")
	}
}

func TestFFTLinearityAndParseval(t *testing.T) {
	n := 32
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	// Parseval: sum |x|^2 * n == sum |X|^2.
	var timeE float64
	for _, v := range a {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	fft(a)
	var freqE float64
	for _, v := range a {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE-timeE*float64(n)) > 1e-6*freqE {
		t.Fatalf("Parseval violated: %v vs %v", freqE, timeE*float64(n))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fft(make([]complex128, 12))
}

func TestEPBatchPartitionIndependent(t *testing.T) {
	// The tallies of a batch depend only on (seed, batch index), so any
	// partitioning of batches across threads yields identical totals.
	fresh := func() rand.Source { return rand.NewSource(0) }
	var a, b [epBins]uint64
	accA := epBatch(fresh(), 7, 3, 1000, &a)
	accB := epBatch(fresh(), 7, 3, 1000, &b)
	if accA != accB || a != b {
		t.Fatal("epBatch not deterministic")
	}
	var c [epBins]uint64
	if acc := epBatch(fresh(), 8, 3, 1000, &c); acc == accA && c == a {
		t.Fatal("seed has no effect")
	}
	// A worker's source, re-seeded after other batches (one of them an odd
	// number of draws), tallies a batch as a fresh one does.
	src := fresh()
	var scratch, d [epBins]uint64
	epBatch(src, 8, 3, 1000, &scratch)
	epBatch(src, 7, 4, 333, &scratch)
	src.Int63()
	if acc := epBatch(src, 7, 3, 1000, &d); acc != accA || d != a {
		t.Fatalf("re-seeded source tallied %d %v, a fresh one %d %v", acc, d, accA, a)
	}
}

// epBatchRand is epBatch drawing through rand.Rand's Float64, as it was
// written before it drew from the source itself.
func epBatchRand(rng *rand.Rand, seed int64, batchIdx, n int, bins *[epBins]uint64) (accepted uint64) {
	rng.Seed(seed ^ int64(batchIdx)*0x9e3779b97f4a7c)
	for i := 0; i < n; i++ {
		x := 2*rng.Float64() - 1
		y := 2*rng.Float64() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		m := math.Max(math.Abs(x*f), math.Abs(y*f))
		b := min(int(m), epBins-1)
		bins[b]++
		accepted++
	}
	return accepted
}

// epBatch's tallies are bit for bit the rand.Rand path's, over several seeds
// and batches, with one source and one Rand reused across them as workers
// reuse theirs.
func TestEPBatchMatchesRand(t *testing.T) {
	src, rng := rand.NewSource(0), rand.New(rand.NewSource(0))
	for seed := int64(1); seed <= 4; seed++ {
		for b, n := range []int{4096, 1, 2048, 333, 4096, 0, 1000} {
			var got, want [epBins]uint64
			acc, wantAcc := epBatch(src, seed, b, n, &got), epBatchRand(rng, seed, b, n, &want)
			if acc != wantAcc || got != want {
				t.Fatalf("seed %d batch %d (%d pairs): %d %v, the rand.Rand path %d %v", seed, b, n, acc, got, wantAcc, want)
			}
		}
	}
}

// kmnTiePoints draws coordinates from a grid of 113 values, so points repeat
// and tie between centers.
func kmnTiePoints() func() float64 {
	i := 0
	return func() float64 { i++; return float64((i*37)%113) / 3 }
}

// kmnTieParams sizes a k-means over kmnTiePoints.
var kmnTieParams = kmnParams{points: 300, k: 4, iters: 3}

func TestKMNReferenceStable(t *testing.T) {
	a := kmnReference(kmnTiePoints(), kmnTieParams)
	b := kmnReference(kmnTiePoints(), kmnTieParams)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reference nondeterministic")
		}
	}
}

func TestBPCacheModelShape(t *testing.T) {
	p := bpSizes(SizeFull)
	b1 := bpEffectiveBytes(p, 1)
	b2 := bpEffectiveBytes(p, 2)
	b8 := bpEffectiveBytes(p, 8)
	if b1 < p.bytesPerEdge*85/100 {
		t.Fatalf("single node must pay nearly full DRAM traffic: %d vs %d", b1, p.bytesPerEdge)
	}
	if b2 >= b1 {
		t.Fatalf("splitting across nodes did not reduce traffic: %d vs %d", b2, b1)
	}
	if b8 < p.bytesPerEdge/2 {
		t.Fatalf("miss ratio fell below the 0.5 floor: %d", b8)
	}
	if b8 > b2 {
		t.Fatal("traffic not monotone in nodes")
	}
}

func TestChecksumFloatsTolerance(t *testing.T) {
	a := []float64{1.0, 2.0, 3.0}
	b := []float64{1.0 + 1e-9, 2.0, 3.0 - 1e-9}
	if checksumFloats(a, 1e-6) != checksumFloats(b, 1e-6) {
		t.Fatal("tolerance did not collapse tiny differences")
	}
	c := []float64{1.1, 2.0, 3.0}
	if checksumFloats(a, 1e-6) == checksumFloats(c, 1e-6) {
		t.Fatal("distinct data collapsed")
	}
	if !strings.Contains(checksumFloats(a, 0), "n=3") {
		t.Fatal("missing length")
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, parts := range []int{1, 3, 8} {
			covered := 0
			prevHi := 0
			for i := 0; i < parts; i++ {
				lo, hi := partition(n, parts, i)
				if lo != prevHi {
					t.Fatalf("gap at part %d (n=%d parts=%d)", i, n, parts)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("partition(%d, %d) covered %d", n, parts, covered)
			}
		}
	}
}

// The typed helpers round-trip at an address ≡ 3 (mod 8) where a value is
// split across two pages, and leave the bytes around the range alone.
func TestBulkHelpersRoundTripAcrossPages(t *testing.T) {
	f64s := []float64{1.5, -2.25, math.Pi, math.Inf(1), 0, 1e-300}
	u64s := []uint64{1, 1 << 63, 0xdeadbeefcafe, 7, 0, math.MaxUint64}
	u32s := []uint32{1, 1 << 31, 0xdeadbeef, 7, 0, math.MaxUint32, 42}
	_, err := dex.NewCluster(1).Run(func(main *dex.Thread) error {
		base, err := main.Mmap(2*dex.PageSize, dex.ProtRead|dex.ProtWrite, "words")
		if err != nil {
			return err
		}
		addr := base + dex.PageSize - 13
		check := func(name string, got, want any, err error) {
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: read %v (%v), wrote %v", name, got, err, want)
			}
		}
		if err := writeFloat64s(main, addr, f64s); err != nil {
			return err
		}
		got, err := readFloat64s(main, addr, len(f64s))
		check("float64s", got, f64s, err)
		if err := writeUint64s(main, addr, u64s); err != nil {
			return err
		}
		got64, err := readUint64s(main, addr, len(u64s))
		check("uint64s", got64, u64s, err)
		if err := writeUint32s(main, addr, u32s); err != nil {
			return err
		}
		got32, err := readUint32s(main, addr, len(u32s))
		check("uint32s", got32, u32s, err)
		edges := make([]byte, 2)
		if err := main.Read(addr-1, edges[:1]); err != nil {
			return err
		}
		if err := main.Read(addr+8*dex.Addr(len(u64s)), edges[1:]); err != nil {
			return err
		}
		check("bytes around the range", edges, []byte{0, 0}, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeOfBalanced(t *testing.T) {
	threads, nodes := 64, 8
	counts := make([]int, nodes)
	for id := 0; id < threads; id++ {
		n := nodeOf(id, threads, nodes)
		if n < 0 || n >= nodes {
			t.Fatalf("nodeOf(%d) = %d", id, n)
		}
		counts[n]++
	}
	for n, c := range counts {
		if c != threads/nodes {
			t.Fatalf("node %d got %d threads", n, c)
		}
	}
}

func TestAppsProfileThroughOpts(t *testing.T) {
	rec := dex.NewFaultRecorder()
	app, _ := ByName("grp")
	res, err := app.Run(Config{Nodes: 2, Variant: Initial,
		Opts: []dex.Option{dex.WithObserver(rec)}})
	if err != nil {
		t.Fatal(err)
	}
	if dex.ProfileOf(rec).Len() == 0 {
		t.Fatal("trace empty")
	}
	if res.Report.DSM.Faults() == 0 {
		t.Fatal("no faults reported")
	}
}

func TestVariantAndSizeStrings(t *testing.T) {
	if Initial.String() != "initial" || Optimized.String() != "optimized" {
		t.Fatal("variant strings wrong")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Nodes != 1 || cfg.ThreadsPerNode != 8 || cfg.Variant != Optimized || cfg.Size != SizeTest || cfg.Seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = Config{Nodes: 4, Variant: Initial}.withDefaults()
	if cfg.Nodes != 4 {
		t.Fatalf("nodes = %d, want 4", cfg.Nodes)
	}
	if cfg.threads() != 32 {
		t.Fatalf("threads = %d", cfg.threads())
	}
}

// TestParseSize: the -size flag of every command accepts exactly "test" and
// "full"; anything else — including a differently-cased spelling, which
// dexbench and dexprof used to run silently at test scale — is an error that
// names the value.
func TestParseSize(t *testing.T) {
	tests := []struct {
		in   string
		want Size
		ok   bool
	}{
		{"test", SizeTest, true},
		{"full", SizeFull, true},
		{"Full", 0, false},
		{"bogus", 0, false},
		{"", 0, false},
		{"full ", 0, false},
	}
	for _, tc := range tests {
		got, err := ParseSize(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), `unknown size "`+tc.in+`"`) {
			t.Errorf("ParseSize(%q) error %q does not name the value", tc.in, err)
		}
	}
}

// TestParseVariant: the -variant flag of dexrun and dexprof accepts exactly
// the two porting stages, by the names Variant.String prints; the
// unmodified program is "initial" on one node, not a variant of its own.
func TestParseVariant(t *testing.T) {
	tests := []struct {
		in   string
		want Variant
		ok   bool
	}{
		{"baseline", 0, false},
		{"initial", Initial, true},
		{"optimized", Optimized, true},
		{"Optimized", 0, false},
		{"Variant(0)", 0, false},
		{"", 0, false},
	}
	for _, tc := range tests {
		got, err := ParseVariant(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && err.Error() != `unknown variant "`+tc.in+`"` {
			t.Errorf("ParseVariant(%q) error %q, want unknown variant %q", tc.in, err, tc.in)
		}
	}
}
