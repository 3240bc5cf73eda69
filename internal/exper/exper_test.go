package exper

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"dex/internal/apps"
)

func TestTableRender(t *testing.T) {
	tb := Table{ID: "X", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tb.Render()
	for _, want := range []string{"X", "demo", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 14 {
		t.Fatalf("got %d experiments", len(exps))
	}
	for _, e := range exps {
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown")
	}
}

// TestServeSLOTable checks the serving experiment's shape and its core
// claim: every row (clean or crash+restart, either protocol) serves
// exactly what it admits.
func TestServeSLOTable(t *testing.T) {
	tb := ServeSLO(nil, apps.SizeTest)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	for _, row := range tb.Rows {
		if len(row) < 4 {
			t.Fatalf("experiment cell failed: %v", row)
		}
		if row[2] != row[3] {
			t.Fatalf("row %v: admitted %s != served %s", row[:2], row[2], row[3])
		}
	}
	restarts := tb.Rows[1][8]
	if restarts == "0" {
		t.Fatalf("crash+restart row reports no restarts: %v", tb.Rows[1])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tb := Table2(nil, apps.SizeTest)
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	// First forward ~812µs, warm ~237µs, backward ~25µs (±10%).
	first := parse(tb.Rows[0][3])
	if first < 730 || first > 900 {
		t.Fatalf("first forward = %vµs", first)
	}
	second := parse(tb.Rows[1][3])
	if second < 210 || second > 265 {
		t.Fatalf("second forward = %vµs", second)
	}
	back := parse(tb.Rows[len(tb.Rows)-1][3])
	if back < 20 || back > 30 {
		t.Fatalf("backward = %vµs", back)
	}
}

func TestFigure3WorkerDominatesFirst(t *testing.T) {
	tb := Figure3(nil, apps.SizeTest)
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	worker1, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	if worker1 < 600 || worker1 > 650 {
		t.Fatalf("first-migration worker setup = %vµs, want ~620", worker1)
	}
	worker2, _ := strconv.ParseFloat(tb.Rows[1][2], 64)
	if worker2 != 0 {
		t.Fatalf("warm migration charged worker setup: %vµs", worker2)
	}
}

func TestFaultHandlingBimodal(t *testing.T) {
	tb := FaultHandling(nil, apps.SizeTest)
	var fastPct float64
	var raw time.Duration
	for _, row := range tb.Rows {
		switch row[0] {
		case "fast-path faults":
			open := strings.Index(row[1], "(")
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[1][open+1:], "%)"), 64)
			if err != nil {
				t.Fatal(err)
			}
			fastPct = v
		case "raw 4KB page retrieval (messaging layer)":
			d, err := time.ParseDuration(row[1])
			if err != nil {
				t.Fatal(err)
			}
			raw = d
		}
	}
	if fastPct <= 5 || fastPct >= 95 {
		t.Fatalf("fault latency not bimodal: fast = %.1f%%", fastPct)
	}
	// Paper: 13.6µs raw page retrieval through the messaging layer.
	if raw < 9*time.Microsecond || raw > 18*time.Microsecond {
		t.Fatalf("raw page retrieval = %v, want ~13.6µs", raw)
	}
}

func TestAblationCoalescingReducesProtocolWork(t *testing.T) {
	tb := AblationCoalescing(nil, apps.SizeTest)
	onFaults, _ := strconv.Atoi(tb.Rows[0][2])
	onJoins, _ := strconv.Atoi(tb.Rows[0][3])
	offFaults, _ := strconv.Atoi(tb.Rows[1][2])
	offNacks, _ := strconv.Atoi(tb.Rows[1][4])
	if onJoins == 0 {
		t.Fatal("coalescing produced no follower joins")
	}
	if offFaults+offNacks <= onFaults {
		t.Fatalf("disabling coalescing did not increase protocol work: on=%d off=%d+%d",
			onFaults, offFaults, offNacks)
	}
	onSpan, _ := time.ParseDuration(tb.Rows[0][1])
	offSpan, _ := time.ParseDuration(tb.Rows[1][1])
	if onSpan > offSpan {
		t.Fatalf("coalescing on (%v) slower than off (%v)", onSpan, offSpan)
	}
}

func TestAblationsFavorPaperDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations")
	}
	check := func(name string, tb Table) {
		t.Helper()
		if len(tb.Rows) != 2 {
			t.Fatalf("%s rows = %v", name, tb.Rows)
		}
		on, err1 := time.ParseDuration(tb.Rows[0][1])
		off, err2 := time.ParseDuration(tb.Rows[1][1])
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: parse %v %v", name, err1, err2)
		}
		if on >= off {
			t.Errorf("%s: paper design (%v) not faster than alternative (%v)", name, on, off)
		}
	}
	check("vma", AblationVMA(nil, apps.SizeTest))
	check("upgrade", AblationUpgrade(nil, apps.SizeTest))
	// RDMA: hybrid must beat both alternatives.
	tb := AblationRDMA(nil, apps.SizeTest)
	hybrid, _ := time.ParseDuration(tb.Rows[0][1])
	perpage, _ := time.ParseDuration(tb.Rows[1][1])
	verb, _ := time.ParseDuration(tb.Rows[2][1])
	if hybrid >= perpage || hybrid >= verb {
		t.Errorf("hybrid (%v) not fastest (per-page %v, verb %v)", hybrid, perpage, verb)
	}
}

func TestAblationAlignmentTradeoff(t *testing.T) {
	tb := AblationAlignment(nil, apps.SizeTest)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	packedSpan, _ := time.ParseDuration(tb.Rows[0][1])
	selSpan, _ := time.ParseDuration(tb.Rows[1][1])
	blanketSpan, _ := time.ParseDuration(tb.Rows[2][1])
	packedPages, _ := strconv.Atoi(tb.Rows[0][2])
	selPages, _ := strconv.Atoi(tb.Rows[1][2])
	blanketPages, _ := strconv.Atoi(tb.Rows[2][2])
	// Selective alignment must beat packed on time (no false sharing)...
	if selSpan >= packedSpan {
		t.Fatalf("selective (%v) not faster than packed (%v)", selSpan, packedSpan)
	}
	// ...and beat blanket alignment on memory by an order of magnitude.
	if blanketPages < 10*selPages {
		t.Fatalf("blanket resident set (%d pages) should dwarf selective (%d)", blanketPages, selPages)
	}
	if selPages > 3*packedPages {
		t.Fatalf("selective resident set too large: %d vs packed %d", selPages, packedPages)
	}
	// Blanket also pays one cold fault per object at this scale.
	if selSpan >= blanketSpan {
		t.Fatalf("selective (%v) not faster than blanket (%v)", selSpan, blanketSpan)
	}
}

func TestTable1Structure(t *testing.T) {
	tb := Table1(nil, apps.SizeTest)
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if strings.Contains(row[5], "err") {
			t.Fatalf("row %v failed", row)
		}
	}
}

// TestAblationDistSpreadsDispatch: A7's headline claim — the centralized
// paper protocol dispatches every directory transaction at the origin
// (share 1.00) on the symmetric contention microbenchmark, while the
// sharded directory spreads dispatch toward 1/nodes.
func TestAblationDistSpreadsDispatch(t *testing.T) {
	tb := AblationDist(nil, apps.SizeTest)
	shares := map[string]string{}
	for _, row := range tb.Rows {
		if row[0] == "contention" {
			shares[row[1]] = row[5]
		}
	}
	if shares["write-invalidate"] != "1.00" {
		t.Fatalf("write-invalidate origin share = %s, want 1.00 (rows: %v)", shares["write-invalidate"], tb.Rows)
	}
	dist, err := strconv.ParseFloat(shares["distributed-manager"], 64)
	if err != nil {
		t.Fatalf("distributed-manager origin share %q: %v", shares["distributed-manager"], err)
	}
	// 4 nodes: a perfect spread is 0.25; anchors and first touches leave
	// some skew, so only require well below half.
	if dist > 0.45 {
		t.Fatalf("distributed-manager origin share = %.2f, want ~1/nodes", dist)
	}
}
