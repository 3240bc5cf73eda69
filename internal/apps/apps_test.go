package apps

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"
)

// variantsAgree runs an app across variants and node counts and requires
// identical Check digests (each app's internal self-check already verified
// the answer against its reference).
func variantsAgree(t *testing.T, app App) {
	t.Helper()
	configs := []Config{
		{Nodes: 1, Variant: Initial},
		{Nodes: 2, Variant: Initial},
		{Nodes: 3, Variant: Optimized},
		{Nodes: 2, Variant: Optimized, ThreadsPerNode: 4},
	}
	var want string
	for _, cfg := range configs {
		res, err := app.Run(cfg)
		if err != nil {
			t.Fatalf("%s %v nodes=%d: %v", app.Name, cfg.Variant, cfg.Nodes, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", app.Name)
		}
		if want == "" {
			want = res.Check
			continue
		}
		if res.Check != want {
			t.Fatalf("%s %v nodes=%d: check %q != %q", app.Name, cfg.Variant, cfg.Nodes, res.Check, want)
		}
	}
}

func TestGRPVariantsAgree(t *testing.T) {
	app, _ := ByName("grp")
	variantsAgree(t, app)
}

// initialPathologyVisible asserts that on a multi-node cluster the Initial
// variant causes substantially more write-invalidate protocol traffic than
// the Optimized variant (the time gap is asserted at full size by the
// experiment harness; at test size fixed costs can mask it).
func initialPathologyVisible(t *testing.T, name string) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-size workload")
	}
	app, _ := ByName(name)
	ini, err := app.Run(Config{Nodes: 2, Variant: Initial, Size: SizeFull})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := app.Run(Config{Nodes: 2, Variant: Optimized, Size: SizeFull})
	if err != nil {
		t.Fatal(err)
	}
	iniW := ini.Report.DSM.WriteFaults + ini.Report.DSM.Invalidations
	optW := opt.Report.DSM.WriteFaults + opt.Report.DSM.Invalidations
	if iniW < 5*optW {
		t.Fatalf("%s: initial write traffic (%d) not >= 5x optimized (%d)", name, iniW, optW)
	}
	if ini.Elapsed <= opt.Elapsed {
		t.Fatalf("%s: initial (%v) not slower than optimized (%v)", name, ini.Elapsed, opt.Elapsed)
	}
}

func TestGRPInitialPathologyVisible(t *testing.T) { initialPathologyVisible(t, "grp") }

func TestRegistry(t *testing.T) {
	apps := All()
	if len(apps) != 8 {
		t.Fatalf("All() returned %d apps", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if a.Name == "" || a.Desc == "" || a.Run == nil {
			t.Fatalf("incomplete app entry %+v", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		got, ok := ByName(a.Name)
		if !ok || got.Name != a.Name {
			t.Fatalf("ByName(%q) failed", a.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown app")
	}
	if got := Restartable(); !slices.Equal(got, []string{"kmn"}) {
		t.Fatalf("Restartable() = %v, want [kmn]", got)
	}
}

func TestKMNVariantsAgree(t *testing.T) {
	app, _ := ByName("kmn")
	variantsAgree(t, app)
}

func TestKMNInitialPathologyVisible(t *testing.T) { initialPathologyVisible(t, "kmn") }

func TestEPVariantsAgree(t *testing.T) {
	app, _ := ByName("ep")
	variantsAgree(t, app)
}

func TestBLKVariantsAgree(t *testing.T) {
	app, _ := ByName("blk")
	variantsAgree(t, app)
}

func TestBTVariantsAgree(t *testing.T) {
	app, _ := ByName("bt")
	variantsAgree(t, app)
}

func TestFTVariantsAgree(t *testing.T) {
	app, _ := ByName("ft")
	variantsAgree(t, app)
}

func TestFFTMatchesDFT(t *testing.T) {
	n := 16
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%5)-2, float64((i*3)%7)/7)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			want[k] += a[j] * complex(math.Cos(ang), math.Sin(ang))
		}
	}
	fft(a)
	for k := range a {
		if cmplx.Abs(a[k]-want[k]) > 1e-9 {
			t.Fatalf("fft[%d] = %v, want %v", k, a[k], want[k])
		}
	}
}

func TestBFSVariantsAgree(t *testing.T) {
	app, _ := ByName("bfs")
	variantsAgree(t, app)
}

func TestBFSInitialPathologyVisible(t *testing.T) { initialPathologyVisible(t, "bfs") }

func TestBPVariantsAgree(t *testing.T) {
	app, _ := ByName("bp")
	variantsAgree(t, app)
}
