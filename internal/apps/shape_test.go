package apps

import (
	"os"
	"testing"
	"time"
)

// TestShape prints full-size scalability curves for one app; it is a
// manual calibration aid, enabled with DEX_SHAPE=<app>.
func TestShape(t *testing.T) {
	name := os.Getenv("DEX_SHAPE")
	if name == "" {
		t.Skip("set DEX_SHAPE=<app> to run")
	}
	app, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	var base time.Duration // the first run, Initial on one node: the unmodified program
	for _, v := range []Variant{Initial, Optimized} {
		for _, nodes := range []int{1, 2, 4, 8} {
			start := time.Now()
			res, err := app.Run(Config{Nodes: nodes, Variant: v, Size: SizeFull})
			if err != nil {
				t.Fatal(err)
			}
			if base == 0 {
				base = res.Elapsed
			}
			t.Logf("%s %-9v nodes=%d elapsed=%-14v speedup=%.2f wall=%-8v faults=%d nacks=%d",
				name, v, nodes, res.Elapsed,
				float64(base)/float64(res.Elapsed),
				time.Since(start).Round(time.Millisecond),
				res.Report.DSM.Faults(), res.Report.DSM.Nacks)
		}
	}
}
