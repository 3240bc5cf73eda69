package profile

import (
	"strings"
	"testing"
	"time"

	"dex/internal/dsm"
	"dex/internal/mem"
)

// add appends literal events to the trace, the way FromRecorder appends
// decoded ones.
func (tr *Trace) add(ev dsm.FaultEvent) { tr.events = append(tr.events, ev) }

func mkTrace() *Trace {
	tr := &Trace{}
	page := func(p int) mem.Addr { return mem.Addr(0x40000000 + p*mem.PageSize) }
	// Page 0: heavy cross-node write contention; page 1: read-mostly from
	// one node; page 2: single invalidation.
	for i := 0; i < 10; i++ {
		tr.add(dsm.FaultEvent{
			Time: time.Duration(i) * time.Millisecond, Node: i % 2, Task: i % 3,
			Kind: dsm.KindWrite, Site: "kmeans/update", Addr: page(0) + 8,
			Latency: 100 * time.Microsecond, Retries: 1,
		})
	}
	for i := 0; i < 4; i++ {
		tr.add(dsm.FaultEvent{
			Time: time.Duration(i) * time.Millisecond, Node: 1, Task: 5,
			Kind: dsm.KindRead, Site: "kmeans/scan", Addr: page(1) + 16,
			Latency: 19 * time.Microsecond,
		})
	}
	tr.add(dsm.FaultEvent{Time: 2 * time.Millisecond, Node: 0, Task: -1, Kind: dsm.KindInvalidate, Addr: page(2)})
	tr.SetRegions([]mem.VMA{
		{Start: page(0), Len: mem.PageSize, Label: "clusters"},
		{Start: page(1), Len: mem.PageSize, Label: "points"},
	})
	return tr
}

func TestSummarize(t *testing.T) {
	tr := mkTrace()
	s := tr.Summarize()
	if s.Total != 15 || s.Reads != 4 || s.Writes != 10 || s.Invals != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Retried != 10 {
		t.Fatalf("Retried = %d", s.Retried)
	}
	want := (10*100 + 4*19) * time.Microsecond / 14
	if s.AvgLatency != want {
		t.Fatalf("AvgLatency = %v, want %v", s.AvgLatency, want)
	}
	if s.SlowFraction < 0.7 || s.SlowFraction > 0.72 {
		t.Fatalf("SlowFraction = %v", s.SlowFraction)
	}
}

func TestTopSites(t *testing.T) {
	tr := mkTrace()
	sites := tr.TopSites(10)
	if len(sites) != 3 {
		t.Fatalf("sites = %v", sites)
	}
	if sites[0].Key != "kmeans/update" || sites[0].Writes != 10 {
		t.Fatalf("top site = %+v", sites[0])
	}
	if sites[1].Key != "kmeans/scan" || sites[1].Reads != 4 {
		t.Fatalf("second site = %+v", sites[1])
	}
	if sites[2].Key != "(kernel)" {
		t.Fatalf("third site = %+v", sites[2])
	}
	if got := tr.TopSites(1); len(got) != 1 {
		t.Fatalf("TopSites(1) returned %d", len(got))
	}
}

func TestTopRegions(t *testing.T) {
	tr := mkTrace()
	regions := tr.TopRegions(10)
	if regions[0].Key != "clusters" || regions[0].Total() != 10 {
		t.Fatalf("top region = %+v", regions[0])
	}
	if regions[1].Key != "points" {
		t.Fatalf("second region = %+v", regions[1])
	}
	// Unlabeled page falls back to "?".
	found := false
	for _, r := range regions {
		if r.Key == "?" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing '?' region for unlabeled page")
	}
}

func TestTopPagesContention(t *testing.T) {
	tr := mkTrace()
	pages := tr.TopPages(10)
	if pages[0].Label != "clusters" || pages[0].Nodes != 2 || pages[0].Writes != 10 {
		t.Fatalf("top page = %+v", pages[0])
	}
	if pages[1].Nodes != 1 {
		t.Fatalf("second page nodes = %d", pages[1].Nodes)
	}
}

func TestTimeline(t *testing.T) {
	tr := mkTrace()
	buckets := tr.Timeline(5 * time.Millisecond)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %v", buckets)
	}
	total := 0
	for _, b := range buckets {
		total += b.Faults
	}
	if total != 15 {
		t.Fatalf("timeline total = %d", total)
	}
	if buckets[0].Faults <= buckets[1].Faults {
		t.Fatalf("expected front-loaded timeline: %v", buckets)
	}
	if tr.Timeline(0) != nil {
		t.Fatal("zero-width timeline should be nil")
	}
}

func TestPerThread(t *testing.T) {
	tr := mkTrace()
	pt := tr.PerThread()
	// Invalidations (task -1) are excluded.
	for _, p := range pt {
		if p.Task == -1 {
			t.Fatalf("invalidation leaked into per-thread analysis: %+v", p)
		}
	}
	if pt[0].Reads+pt[0].Writes < pt[len(pt)-1].Reads+pt[len(pt)-1].Writes {
		t.Fatal("per-thread not sorted by activity")
	}
}

func TestReportRenders(t *testing.T) {
	tr := mkTrace()
	var sb strings.Builder
	tr.Report(&sb, 5)
	out := sb.String()
	for _, want := range []string{"clusters", "kmeans/update", "most contended pages", "per-thread"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.Len() != 0 || tr.Summarize().Total != 0 {
		t.Fatal("empty trace not empty")
	}
	if tr.Timeline(time.Millisecond) != nil {
		t.Fatal("empty timeline not nil")
	}
	var sb strings.Builder
	tr.Report(&sb, 3) // must not panic
}

func TestAffinitySuggestions(t *testing.T) {
	tr := &Trace{}
	page := func(p int) mem.Addr { return mem.Addr(0x50000000 + p*mem.PageSize) }
	// Node 2 produces pages 0-3; task 9 on node 0 keeps reading them.
	for p := 0; p < 4; p++ {
		tr.add(dsm.FaultEvent{Node: 2, Task: 1, Kind: dsm.KindWrite, Addr: page(p)})
		for i := 0; i < 5; i++ {
			tr.add(dsm.FaultEvent{Node: 0, Task: 9, Kind: dsm.KindRead, Addr: page(p) + 8})
		}
	}
	// Task 9 also reads one page produced locally (must not count).
	tr.add(dsm.FaultEvent{Node: 0, Task: 9, Kind: dsm.KindWrite, Addr: page(9)})
	tr.add(dsm.FaultEvent{Node: 0, Task: 9, Kind: dsm.KindRead, Addr: page(9)})
	sug := tr.AffinitySuggestions(1)
	if len(sug) != 1 {
		t.Fatalf("suggestions = %+v", sug)
	}
	s := sug[0]
	if s.Task != 9 || s.From != 0 || s.To != 2 || s.ReadFaults != 20 || s.Total != 20 {
		t.Fatalf("suggestion = %+v", s)
	}
	if s.Score() != 1.0 {
		t.Fatalf("score = %v", s.Score())
	}
}

func TestAffinityMinFaultsFilter(t *testing.T) {
	tr := &Trace{}
	a := mem.Addr(0x60000000)
	tr.add(dsm.FaultEvent{Node: 1, Task: 2, Kind: dsm.KindWrite, Addr: a})
	tr.add(dsm.FaultEvent{Node: 0, Task: 3, Kind: dsm.KindRead, Addr: a})
	if got := tr.AffinitySuggestions(2); len(got) != 0 {
		t.Fatalf("below-threshold suggestion returned: %+v", got)
	}
	if got := tr.AffinitySuggestions(1); len(got) != 1 {
		t.Fatalf("suggestion missing: %+v", got)
	}
}

func TestAffinityNoWriterKnown(t *testing.T) {
	tr := &Trace{}
	// Reads of a page that was never written cross-node: no producer info.
	tr.add(dsm.FaultEvent{Node: 0, Task: 1, Kind: dsm.KindRead, Addr: 0x70000000})
	if got := tr.AffinitySuggestions(1); len(got) != 0 {
		t.Fatalf("suggestion without producer: %+v", got)
	}
}

func TestAffinityTieBreaksDeterministic(t *testing.T) {
	build := func() []Suggestion {
		tr := &Trace{}
		pa, pb := mem.Addr(0x80000000), mem.Addr(0x80001000)
		tr.add(dsm.FaultEvent{Node: 1, Task: 0, Kind: dsm.KindWrite, Addr: pa})
		tr.add(dsm.FaultEvent{Node: 2, Task: 0, Kind: dsm.KindWrite, Addr: pb})
		tr.add(dsm.FaultEvent{Node: 0, Task: 5, Kind: dsm.KindRead, Addr: pa})
		tr.add(dsm.FaultEvent{Node: 0, Task: 5, Kind: dsm.KindRead, Addr: pb})
		return tr.AffinitySuggestions(1)
	}
	a, b := build(), build()
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("tie-break nondeterministic: %+v vs %+v", a, b)
	}
	if a[0].To != 1 { // lowest node id wins ties
		t.Fatalf("tie went to node %d", a[0].To)
	}
}

func TestCorrelatedSites(t *testing.T) {
	tr := &Trace{}
	pg := func(p int) mem.Addr { return mem.Addr(0x90000000 + p*mem.PageSize) }
	// "producer/store" writes pages 0-1; "consumer/load" reads them back.
	for p := 0; p < 2; p++ {
		for i := 0; i < 5; i++ {
			tr.add(dsm.FaultEvent{Node: 0, Task: 1, Kind: dsm.KindWrite, Site: "producer/store", Addr: pg(p)})
			tr.add(dsm.FaultEvent{Node: 1, Task: 2, Kind: dsm.KindRead, Site: "consumer/load", Addr: pg(p) + 64})
		}
	}
	// Unrelated site on its own page must not pair up.
	tr.add(dsm.FaultEvent{Node: 0, Task: 3, Kind: dsm.KindWrite, Site: "elsewhere", Addr: pg(9)})
	pairs := tr.CorrelatedSites(5)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v", pairs)
	}
	p := pairs[0]
	if p.WriteSite != "producer/store" || p.ReadSite != "consumer/load" {
		t.Fatalf("pair = %+v", p)
	}
	if p.Pages != 2 || p.Writes != 10 || p.Reads != 10 {
		t.Fatalf("volumes = %+v", p)
	}
}

func TestCorrelatedSitesTopN(t *testing.T) {
	tr := &Trace{}
	pg := mem.Addr(0xa0000000)
	for i := 0; i < 3; i++ {
		site := string(rune('a' + i))
		tr.add(dsm.FaultEvent{Kind: dsm.KindWrite, Site: "w" + site, Addr: pg + mem.Addr(i*mem.PageSize)})
		tr.add(dsm.FaultEvent{Kind: dsm.KindRead, Site: "r" + site, Addr: pg + mem.Addr(i*mem.PageSize)})
	}
	if got := tr.CorrelatedSites(2); len(got) != 2 {
		t.Fatalf("topN = %d", len(got))
	}
	// Deterministic ordering under ties.
	a := tr.CorrelatedSites(0)
	b := tr.CorrelatedSites(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic order")
		}
	}
}
