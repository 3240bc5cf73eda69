package apps

import (
	"testing"

	"dex"
	"dex/internal/dsm"
	"dex/internal/profile"
)

// Signature tests tie the §V-C optimization stories to the actual fault
// traces: running each Initial port under the profiler must surface exactly
// the pathology the paper's tool found, and the Optimized port must not.

func traceOf(t *testing.T, name string, v Variant, nodes int) (*profile.Trace, Result) {
	t.Helper()
	rec := dex.NewFaultRecorder()
	app, _ := ByName(name)
	res, err := app.Run(Config{Nodes: nodes, Variant: v,
		Opts: []dex.Option{dex.WithObserver(rec)}})
	if err != nil {
		t.Fatalf("%s %v: %v", name, v, err)
	}
	return dex.ProfileOf(rec), res
}

// siteEvents sums read+write events attributed to a profiling site.
func siteEvents(tr *profile.Trace, site string) uint64 {
	for _, c := range tr.TopSites(0) {
		if c.Key == site {
			return c.Reads + c.Writes
		}
	}
	return 0
}

func TestGRPSignatureGlobalCounterContention(t *testing.T) {
	ini, _ := traceOf(t, "grp", Initial, 4)
	opt, _ := traceOf(t, "grp", Optimized, 4)
	// The paper's diagnosis: GRP updates a global variable per occurrence.
	iniHits := siteEvents(ini, "grp/global-update")
	if iniHits == 0 {
		t.Fatal("initial GRP shows no global-update faults")
	}
	if got := siteEvents(opt, "grp/global-update"); got != 0 {
		t.Fatalf("optimized GRP still faults on per-hit updates: %d", got)
	}
	// After staging, the merge is a single bounded batch per thread.
	if merges := siteEvents(opt, "grp/merge"); merges == 0 || merges > 4*32 {
		t.Fatalf("optimized merge events = %d", merges)
	}
}

func TestKMNSignatureAccumulatorPage(t *testing.T) {
	ini, _ := traceOf(t, "kmn", Initial, 4)
	// The hottest contended page must be the global accumulator, written
	// from every node.
	pages := ini.TopPages(3)
	if len(pages) == 0 {
		t.Fatal("no pages in trace")
	}
	found := false
	for _, pc := range pages {
		if pc.Nodes >= 3 && pc.Writes > 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no multi-node write-contended page among %+v", pages)
	}
	// The §IV-C correlated-sites analysis must pair the merge writes with
	// the reduce reads.
	sawMergePair := false
	for _, p := range ini.CorrelatedSites(10) {
		if p.WriteSite == "kmn/global-merge" {
			sawMergePair = true
		}
	}
	if !sawMergePair {
		t.Fatal("correlated-sites analysis missed the global-merge producer")
	}
}

func TestBTSignatureParentStack(t *testing.T) {
	ini, _ := traceOf(t, "bt", Initial, 4)
	opt, _ := traceOf(t, "bt", Optimized, 4)
	if siteEvents(ini, "bt/stack-read") == 0 {
		t.Fatal("initial BT never faulted reading the parent stack")
	}
	if got := siteEvents(opt, "bt/stack-read"); got != 0 {
		t.Fatalf("optimized BT still reads the parent stack: %d", got)
	}
}

func TestEPSignatureColocation(t *testing.T) {
	// In Initial, parameter re-reads fault because tally flushes
	// invalidate the shared page; Optimized separates them so parameter
	// reads stop faulting after the first replication.
	ini, iniRes := traceOf(t, "ep", Initial, 4)
	opt, optRes := traceOf(t, "ep", Optimized, 4)
	if siteEvents(ini, "ep/params") <= siteEvents(opt, "ep/params") {
		t.Fatalf("param faults: initial %d vs optimized %d",
			siteEvents(ini, "ep/params"), siteEvents(opt, "ep/params"))
	}
	if iniRes.Report.DSM.Faults() <= optRes.Report.DSM.Faults() {
		t.Fatalf("total faults: initial %d vs optimized %d",
			iniRes.Report.DSM.Faults(), optRes.Report.DSM.Faults())
	}
}

func TestBFSSignatureScatterWrites(t *testing.T) {
	ini, _ := traceOf(t, "bfs", Initial, 4)
	opt, _ := traceOf(t, "bfs", Optimized, 4)
	if siteEvents(ini, "bfs/discover") == 0 {
		t.Fatal("initial BFS shows no scatter-discovery faults")
	}
	if got := siteEvents(opt, "bfs/discover"); got != 0 {
		t.Fatalf("optimized BFS still scatters level writes: %d", got)
	}
	if siteEvents(opt, "bfs/apply") == 0 {
		t.Fatal("optimized BFS apply phase left no trace")
	}
}

func TestFTSignatureAllToAll(t *testing.T) {
	// FT's transposes are an all-to-all: every node pulls essentially the
	// whole grid each iteration, so the bytes crossing the fabric GROW
	// with the node count instead of staying flat — the reason FT never
	// scales (Figure 2).
	_, res2 := traceOf(t, "ft", Optimized, 2)
	_, res4 := traceOf(t, "ft", Optimized, 4)
	b2, b4 := res2.Report.Net.PageBytes, res4.Report.Net.PageBytes
	if b4 < b2*3/2 {
		t.Fatalf("page bytes did not grow with nodes: %d at n=2 vs %d at n=4", b2, b4)
	}
	// And the transpose is a major fault source in the trace.
	tr, _ := traceOf(t, "ft", Initial, 4)
	if siteEvents(tr, "ft/transpose") == 0 {
		t.Fatal("no transpose faults recorded")
	}
}

func TestProfilerLabelsResolveAppRegions(t *testing.T) {
	tr, res := traceOf(t, "kmn", Initial, 2)
	// The cluster is gone; the report kept the address space's labels.
	tr.SetRegions(res.Report.Regions)
	regions := make(map[string]bool)
	for _, c := range tr.TopRegions(0) {
		regions[c.Key] = true
	}
	if !regions["points"] || !regions["global-accum"] || regions["?"] {
		t.Fatalf("kmn's regions not named: %v", regions)
	}
	// Raw events carry the §IV-A tuple fields.
	for _, ev := range tr.Events()[:3] {
		if ev.Addr == 0 || ev.Kind == 0 {
			t.Fatalf("incomplete event: %+v", ev)
		}
		if ev.Kind != dsm.KindInvalidate && ev.Latency <= 0 {
			t.Fatalf("fault without latency: %+v", ev)
		}
	}
}
