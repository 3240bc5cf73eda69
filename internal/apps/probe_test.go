package apps

import (
	"os"
	"strings"
	"testing"

	"dex"
)

// TestProbe profiles one full-size app run; enable with DEX_PROBE=<app>.
func TestProbe(t *testing.T) {
	name := os.Getenv("DEX_PROBE")
	if name == "" {
		t.Skip("set DEX_PROBE=<app>")
	}
	app, _ := ByName(name)
	rec := dex.NewFaultRecorder()
	res, err := app.Run(Config{Nodes: 8, Variant: Optimized, Size: SizeFull,
		Opts: []dex.Option{dex.WithObserver(rec)}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	dex.ProfileOf(rec).Report(&sb, 12)
	t.Logf("elapsed=%v migrations=%d delegations=%d\n%s", res.Elapsed, res.Report.Migrations, res.Report.Delegations, sb.String())
}
