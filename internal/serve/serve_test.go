package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dex"
	"dex/internal/chaos"
)

func testConfig(nodes int, opts ...dex.Option) Config {
	return Config{
		Nodes: nodes,
		Spec:  DefaultSpec(2, false, 5),
		Opts:  opts,
	}
}

func mustRun(t *testing.T, cfg Config) Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("serve.Run: %v", err)
	}
	return rep
}

// TestRunClean checks the basic shape of a fault-free run: everything
// admitted is served, latencies are populated, and the self-check holds.
func TestRunClean(t *testing.T) {
	rep := mustRun(t, testConfig(2))
	if rep.Total.Offered == 0 || rep.Total.Admitted == 0 {
		t.Fatalf("no traffic: %+v", rep.Total)
	}
	if rep.Total.Served != rep.Total.Admitted {
		t.Fatalf("served %d != admitted %d", rep.Total.Served, rep.Total.Admitted)
	}
	if rep.Total.Shed429 == 0 {
		t.Fatal("rate-limited tenant shed nothing; token bucket inert")
	}
	if rep.Total.P50 <= 0 || rep.Total.P99 < rep.Total.P50 || rep.Total.Max < rep.Total.P999 {
		t.Fatalf("degenerate percentiles: %+v", rep.Total)
	}
	if rep.Republishes != 0 || rep.Reacks != 0 {
		t.Fatalf("recovery counters nonzero without faults: %+v", rep)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("want 2 tenant rows, got %d", len(rep.Tenants))
	}
}

// TestRunDeterministicAcrossCores is the report-level byte-identity claim,
// and what the frozen benchmark's serve_cores workload relies on: the full
// report (latencies, percentiles, cluster stats) of a run with the ignored
// dex.WithCores(4) is deeply equal to that of a run without.
func TestRunDeterministicAcrossCores(t *testing.T) {
	a := mustRun(t, testConfig(3))
	b := mustRun(t, testConfig(3, dex.WithCores(4)))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ under WithCores(4):\nplain:        %+v\nWithCores(4): %+v", a, b)
	}
}

// TestRunTracingInvariant checks attaching an observer does not perturb
// the report (the event census it turns on is observation, not simulation).
func TestRunTracingInvariant(t *testing.T) {
	plain := mustRun(t, testConfig(2))
	rec := dex.NewRecorder()
	traced := mustRun(t, testConfig(2, dex.WithObserver(rec)))
	if traced.Dex.Sched.Census == nil || plain.Dex.Sched.Census != nil {
		t.Fatal("the event census is on exactly when a recorder is bound")
	}
	traced.Dex.Sched.Census = nil
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("attaching an observer changed the serve report")
	}
	spans := rec.Spans()
	var serve, shed int
	for _, sp := range spans {
		switch sp.Name {
		case "req.serve":
			serve++
		case "req.shed":
			shed++
		}
	}
	if serve != plain.Total.Served {
		t.Fatalf("req.serve spans %d != served %d", serve, plain.Total.Served)
	}
	if shed != plain.Total.Shed429+plain.Total.ShedQueue {
		t.Fatalf("req.shed spans %d != shed %d", shed, plain.Total.Shed429+plain.Total.ShedQueue)
	}
}

// TestRunProtocolAgnostic checks both coherence protocols complete and
// agree on the placement-independent digest: admission is schedule-pure
// and increments commute, so offered/admitted/served/state match even
// though latencies differ.
func TestRunProtocolAgnostic(t *testing.T) {
	wi := mustRun(t, testConfig(2, dex.WithProtocol(dex.WriteInvalidate)))
	hm := mustRun(t, testConfig(2, dex.WithProtocol(dex.HomeMigrate)))
	if wi.Digest() != hm.Digest() {
		t.Fatalf("digest differs across protocols:\nwi: %s\nhm: %s", wi.Digest(), hm.Digest())
	}
	if wi.Total.Shed429 != hm.Total.Shed429 {
		t.Fatalf("429 set not schedule-pure: wi %d, hm %d", wi.Total.Shed429, hm.Total.Shed429)
	}
}

// TestRunNodesInvariantDigest checks the digest is placement-independent:
// 1 node and 4 nodes serve the same admitted set to the same final state.
func TestRunNodesInvariantDigest(t *testing.T) {
	one := mustRun(t, testConfig(1))
	four := mustRun(t, testConfig(4))
	if one.Digest() != four.Digest() {
		t.Fatalf("digest differs across node counts:\n1: %s\n4: %s", one.Digest(), four.Digest())
	}
}

func crashPlan(node int, at time.Duration) *dex.ChaosPlan {
	return &dex.ChaosPlan{
		Seed:    3,
		Crashes: []chaos.Crash{{Node: node, At: chaos.Duration(at)}},
	}
}

// TestRunChaosRestartExactlyOnce is the acceptance scenario: a shard's
// node crashes mid-traffic and the shard restarts from its checkpoint; the
// run must complete with every admitted request served exactly once (the
// store self-check inside Run enforces the state half; the counts enforce
// the serving half) and per-tenant percentiles still reported.
func TestRunChaosRestartExactlyOnce(t *testing.T) {
	for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate} {
		cfg := testConfig(2, dex.WithProtocol(proto), dex.WithChaos(crashPlan(1, 10*time.Millisecond)))
		cfg.Restart = true
		rep := mustRun(t, cfg)
		if rep.Total.Served != rep.Total.Admitted {
			t.Fatalf("proto %v: served %d != admitted %d", proto, rep.Total.Served, rep.Total.Admitted)
		}
		for _, ts := range rep.Tenants {
			if ts.Served > 0 && ts.P99 <= 0 {
				t.Fatalf("proto %v: tenant %s served %d with empty p99", proto, ts.Name, ts.Served)
			}
		}
		if rep.Restarts == 0 {
			t.Fatalf("proto %v: crash at 10ms never restarted a shard", proto)
		}
	}
}

// TestRunChaosRestartDeterministic checks the chaos run itself is
// reproducible: same plan, same report.
func TestRunChaosRestartDeterministic(t *testing.T) {
	run := func() Report {
		cfg := testConfig(2, dex.WithChaos(crashPlan(1, 10*time.Millisecond)))
		cfg.Restart = true
		return mustRun(t, cfg)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("chaos serve reports differ between two runs")
	}
}

// TestRunCrashWithoutRestartFails checks the failure mode is a bounded,
// explicit error — a dead, non-restartable shard must not hang the run.
func TestRunCrashWithoutRestartFails(t *testing.T) {
	cfg := testConfig(2, dex.WithChaos(crashPlan(1, 10*time.Millisecond)))
	if _, err := Run(cfg); err == nil {
		t.Fatal("crash without -restart completed; expected a stall or kill error")
	}
}

// TestRunValidation covers the config rejection paths.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: -1, Spec: DefaultSpec(1, false, 1)}); err == nil {
		t.Fatal("negative nodes accepted")
	}
	if _, err := Run(Config{Nodes: 1}); err == nil ||
		!strings.Contains(err.Error(), "tenant") && !strings.Contains(err.Error(), "load") {
		t.Fatalf("empty spec accepted or wrong error: %v", err)
	}
}
