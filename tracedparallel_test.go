package dex_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
)

// These tests pin that observation is reproducible and serializes nothing: a
// recorder leaves the simulator's lanes independent, and two runs of one
// configuration and seed — the second with the ignored dex.WithCores(4) —
// give the same application result, the same core.Report (scheduler
// telemetry included), and byte-identical Perfetto trace, metrics summary and
// page-fault profile.

// runTracedApp executes one application with a recorder attached and renders
// the trace and metrics bytes.
func runTracedApp(t *testing.T, app apps.App, cfg apps.Config, opts ...dex.Option) (apps.Result, []byte, []byte) {
	t.Helper()
	rec := dex.NewRecorder()
	cfg.Opts = append(append(append([]dex.Option(nil), cfg.Opts...), dex.WithObserver(rec)), opts...)
	res, err := app.Run(cfg)
	if err != nil {
		t.Fatalf("%s %d extra option(s): %v", app.Name, len(opts), err)
	}
	var trace, metrics bytes.Buffer
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), metrics.Bytes()
}

func requireIdenticalTraced(t *testing.T, label string, app apps.App, cfg apps.Config) []byte {
	t.Helper()
	plain, ptrace, pmetrics := runTracedApp(t, app, cfg)
	cores, ctrace, cmetrics := runTracedApp(t, app, cfg, dex.WithCores(4))
	if !reflect.DeepEqual(plain, cores) {
		t.Fatalf("%s: traced result diverged under WithCores(4):\nplain:        %+v\nWithCores(4): %+v",
			label, plain, cores)
	}
	if !bytes.Equal(ptrace, ctrace) {
		t.Fatalf("%s: trace bytes diverged under WithCores(4) (%d vs %d bytes)",
			label, len(ptrace), len(ctrace))
	}
	if !bytes.Equal(pmetrics, cmetrics) {
		t.Fatalf("%s: metrics bytes diverged under WithCores(4):\nplain:\n%s\nWithCores(4):\n%s",
			label, pmetrics, cmetrics)
	}
	if len(ptrace) < 1000 {
		t.Fatalf("%s: trace suspiciously small (%d bytes)", label, len(ptrace))
	}
	return ptrace
}

// TestTracedParallelByteIdenticalAllApps: every application, traced, produces
// identical reports and byte-identical trace/metrics output from run to run.
func TestTracedParallelByteIdenticalAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep")
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := apps.Config{Nodes: 4, Variant: apps.Optimized}
			requireIdenticalTraced(t, app.Name, app, cfg)
		})
	}
}

// TestTracedParallelByteIdenticalProtocols covers two coherence policies;
// home-migrate serializes its lanes.
func TestTracedParallelByteIdenticalProtocols(t *testing.T) {
	app, _ := apps.ByName("kmn")
	for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate} {
		cfg := apps.Config{
			Nodes:   3,
			Variant: apps.Optimized,
			Opts:    []dex.Option{dex.WithProtocol(proto)},
		}
		requireIdenticalTraced(t, proto.String(), app, cfg)
	}
}

// TestTracedParallelByteIdenticalChaos repeats the byte-identity property
// under a fault plan exercising the recovery paths (drops, a partition, a
// node crash with checkpoint/restart), then checks the recovery-lifecycle
// span kinds actually appear in the trace.
func TestTracedParallelByteIdenticalChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep")
	}
	plan := &dex.ChaosPlan{
		Seed: 11,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.05}},
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}},
		Partitions: []chaos.Partition{
			{A: []int{0, 1}, B: []int{2, 3}, From: chaos.Duration(2 * time.Millisecond), To: chaos.Duration(4 * time.Millisecond)},
		},
		Crashes: []chaos.Crash{{Node: 3, At: chaos.Duration(6 * time.Millisecond)}},
	}
	app, _ := apps.ByName("kmn")
	cfg := apps.Config{
		Nodes:          4,
		ThreadsPerNode: 4,
		Variant:        apps.Optimized,
		Restart:        true,
		Opts:           []dex.Option{dex.WithChaos(plan)},
	}
	trace := requireIdenticalTraced(t, "chaos", app, cfg)
	for _, kind := range []string{
		`"retransmit"`, `"node.crash"`, `"node.dead"`, `"thread.restart"`, `"checkpoint"`,
	} {
		if !bytes.Contains(trace, []byte(kind)) {
			t.Errorf("recovery span kind %s missing from chaos trace", kind)
		}
	}
}

// TestSchedTelemetry checks the Report.Sched counters of a traced run: the
// window machinery actually ran and the per-lane stats cover every node (the
// DeepEqual tests above cover reproducibility field for field; here we pin
// basic shape and non-triviality).
func TestSchedTelemetry(t *testing.T) {
	app, _ := apps.ByName("bfs")
	cfg := apps.Config{Nodes: 4, Variant: apps.Optimized}
	res, trace, _ := runTracedApp(t, app, cfg)
	s := res.Report.Sched
	if s.Windows == 0 || s.Events == 0 || s.LaneDispatches == 0 {
		t.Fatalf("scheduler telemetry empty: %+v", s)
	}
	if s.Lookahead <= 0 {
		t.Fatalf("lookahead not reported: %+v", s)
	}
	if len(s.Lanes) != cfg.Nodes {
		t.Fatalf("got %d lane stats, want %d", len(s.Lanes), cfg.Nodes)
	}
	var laneEvents uint64
	for _, l := range s.Lanes {
		laneEvents += l.Events
	}
	if laneEvents == 0 || laneEvents > s.Events {
		t.Fatalf("lane event counts inconsistent: lanes=%d total=%d", laneEvents, s.Events)
	}
	if s.MaxWindowLanes < 1 || s.MaxWindowLanes > cfg.Nodes {
		t.Fatalf("MaxWindowLanes out of range: %+v", s)
	}
	for _, gauge := range []string{`"sched.windows"`, `"sched.serialized_windows"`, `"sched.lane_dispatches"`} {
		if !bytes.Contains(trace, []byte(gauge)) {
			t.Errorf("scheduler gauge %s missing from trace", gauge)
		}
	}
}

// runProfiledApp executes one application under a fault recorder and renders
// every analysis of its profile.
func runProfiledApp(t *testing.T, app apps.App, cfg apps.Config, opts ...dex.Option) (apps.Result, []byte) {
	t.Helper()
	rec := dex.NewFaultRecorder()
	cfg.Opts = append(append(append([]dex.Option(nil), cfg.Opts...), dex.WithObserver(rec)), opts...)
	res, err := app.Run(cfg)
	if err != nil {
		t.Fatalf("%s %d extra option(s): %v", app.Name, len(opts), err)
	}
	tr := dex.ProfileOf(rec)
	if tr.Len() == 0 {
		t.Fatalf("%s: empty profile", app.Name)
	}
	var out bytes.Buffer
	tr.Report(&out, 10)
	fmt.Fprintln(&out, tr.AffinitySuggestions(8))
	fmt.Fprintln(&out, tr.Timeline(res.Elapsed/20))
	return res, out.Bytes()
}

// TestProfiledRunKeepsLanesIndependent: the profile is read from the recorder
// after the run, so profiling serializes nothing —
// sleeps are still taken in place, which only a lane that runs alone to the
// window's end may do.
func TestProfiledRunKeepsLanesIndependent(t *testing.T) {
	app, _ := apps.ByName("kmn")
	res, _ := runProfiledApp(t, app, apps.Config{Nodes: 4, Variant: apps.Initial})
	if s := res.Report.Sched; s.InPlaceWakes == 0 {
		t.Fatalf("profiled run took no sleep in place, its lanes are serialized: %+v", s)
	}
}

// TestProfileByteIdenticalAcrossCores: the profile's events come out of the
// recorder in its (time, lane, emission) order, so every analysis renders the
// same bytes from run to run, WithCores or not.
func TestProfileByteIdenticalAcrossCores(t *testing.T) {
	for _, name := range []string{"kmn", "bfs"} {
		app, _ := apps.ByName(name)
		for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.DistributedManager} {
			cfg := apps.Config{Nodes: 4, Variant: apps.Initial, Opts: []dex.Option{dex.WithProtocol(proto)}}
			plain, pout := runProfiledApp(t, app, cfg)
			cores, cout := runProfiledApp(t, app, cfg, dex.WithCores(4))
			if !reflect.DeepEqual(plain, cores) {
				t.Fatalf("%s %v: profiled result diverged under WithCores(4):\nplain:        %+v\nWithCores(4): %+v",
					name, proto, plain, cores)
			}
			if !bytes.Equal(pout, cout) {
				t.Fatalf("%s %v: profile diverged under WithCores(4):\nplain:\n%s\nWithCores(4):\n%s",
					name, proto, pout, cout)
			}
		}
	}
}
