package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI and returns its stdout bytes.
func capture(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("dexserve %v: %v", args, err)
	}
	return out.Bytes()
}

// TestServeGoldenBytes pins the default table to committed golden bytes:
// any drift in the generator, the serving path, or the simulator shows up
// as a diff. Regenerate with:
//
//	go run ./cmd/dexserve > cmd/dexserve/testdata/golden.txt
func TestServeGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := capture(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestServeByteIdentical is the CLI-level determinism claim: repeated
// runs and tracing yield the same stdout bytes.
func TestServeByteIdentical(t *testing.T) {
	base := capture(t, "-nodes", "3", "-tenants", "3", "-seed", "9")
	if again := capture(t, "-nodes", "3", "-tenants", "3", "-seed", "9"); !bytes.Equal(base, again) {
		t.Fatal("two identical invocations differ")
	}
	tr := filepath.Join(t.TempDir(), "trace.json")
	if traced := capture(t, "-nodes", "3", "-tenants", "3", "-seed", "9", "-trace", tr); !bytes.Equal(base, traced) {
		t.Fatal("-trace changed the output bytes")
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
}

// TestServeCrashRestart drives the acceptance scenario end to end through
// the CLI: a mid-traffic crash with -restart completes, reports restarts,
// and still accounts every admitted request exactly once.
func TestServeCrashRestart(t *testing.T) {
	out := capture(t, "-nodes", "2", "-crash", "10ms", "-restart")
	s := string(out)
	if !strings.Contains(s, "exactly-once:") {
		t.Fatalf("no exactly-once line:\n%s", s)
	}
	if strings.Contains(s, "restarts=0") {
		t.Fatalf("crash run reports zero restarts:\n%s", s)
	}
	// The same flags must reproduce the same bytes.
	if again := capture(t, "-nodes", "2", "-crash", "10ms", "-restart"); !bytes.Equal(out, again) {
		t.Fatal("chaos run not reproducible")
	}
}

// TestServeHomeCrashCompletes serves eight tenants on eight nodes under
// home-migrate with node 7 crashing at 30 ms and shards restartable. On plan
// seeds 3 and 15 the origin once stranded requests on a page homed at the
// dead node (14 in flight after 250 ms without progress, then the event
// limit); every admitted request must now be served exactly once.
func TestServeHomeCrashCompletes(t *testing.T) {
	for _, seed := range []string{"3", "15"} {
		plan := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(plan, []byte(`{"seed":`+seed+`,"crashes":[{"node":7,"at":"30ms"}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		out := string(capture(t, "-nodes", "8", "-tenants", "8", "-seed", seed, "-protocol", "home", "-restart", "-chaos", plan))
		if !strings.Contains(out, "exactly-once:") || strings.Contains(out, "restarts=0") {
			t.Fatalf("seed %s: no exactly-once line, or no restart:\n%s", seed, out)
		}
	}
}

// TestServeEventBudget pins how many simulator events the golden run costs:
// the host-independent half of what a dexserve campaign costs, and the count
// ROADMAP item 3 is about. The golden bytes cannot show it (no table prints
// it), so a change that adds events to the serving path fails here by name
// (make goldens runs it with the other cost gates). Lower it when a change
// removes events, and say which in CHANGES.md.
func TestServeEventBudget(t *testing.T) {
	const budget = 61067
	var rep struct {
		Report struct {
			Sched struct{ Events, InPlaceWakes uint64 }
		} `json:"report"`
	}
	if err := json.Unmarshal(capture(t, "-json"), &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Report.Sched.Events; got != budget {
		t.Fatalf("the golden run executed %d events (%d of them sleeps taken in place), want %d",
			got, rep.Report.Sched.InPlaceWakes, budget)
	}
}

// TestServeJSON checks the machine-readable output round-trips and agrees
// with the table run's accounting.
func TestServeJSON(t *testing.T) {
	out := capture(t, "-json")
	var rep struct {
		Tenants []struct {
			Admitted int `json:"admitted"`
			Served   int `json:"served"`
		} `json:"tenants"`
		Fingerprint string `json:"spec_fingerprint"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Tenants) != 2 || rep.Fingerprint == "" {
		t.Fatalf("unexpected JSON document: %+v", rep)
	}
	for _, ts := range rep.Tenants {
		if ts.Served != ts.Admitted {
			t.Fatalf("served %d != admitted %d", ts.Served, ts.Admitted)
		}
	}
}

// TestServeBadFlags covers the rejection paths.
func TestServeBadFlags(t *testing.T) {
	// A plan that crashes node 0, the origin the store's process starts at.
	originCrash := filepath.Join(t.TempDir(), "origin-crash.json")
	if err := os.WriteFile(originCrash, []byte(`{"crashes":[{"node":0,"at":"1ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "-1"},
		{"-nodes", "65"},
		{"-nodes", "3", "-chaos", originCrash},
		{"-tenants", "0"},
		{"-cores", "4"},
		{"-size", "bogus"},
		{"-protocol", "bogus"},
		{"-nodes", "1", "-crash", "1ms"},
		{"-chaos", "nope.json", "-crash", "1ms"},
		{"-chaos", "does-not-exist.json"},
		{"-nodes", "3", "-crash", "-5ms"},
	} {
		err := run(bad, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("bad flags accepted: %v", bad)
		}
		if strings.Contains(err.Error(), "\n") || strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("%v: error %q is not one line", bad, err)
		}
	}
}
