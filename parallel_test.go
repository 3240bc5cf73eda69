package dex_test

import (
	"reflect"
	"testing"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
)

// dex.WithCores is accepted and ignored (the frozen benchmark's serve_cores
// workload still passes it). These tests run a configuration twice, the second
// time with WithCores(4), and require the full run outcome — the application's
// answer digest, the virtual elapsed time, and the entire core.Report (DSM,
// fabric, TLB, migration, chaos and scheduler counters) — to be DeepEqual: the
// option changes nothing, and a four-node run reproduces itself.

// runApp executes one application with extra options.
func runApp(t *testing.T, app apps.App, cfg apps.Config, opts ...dex.Option) apps.Result {
	t.Helper()
	cfg.Opts = append(append([]dex.Option(nil), cfg.Opts...), opts...)
	res, err := app.Run(cfg)
	if err != nil {
		t.Fatalf("%s %d extra option(s): %v", app.Name, len(opts), err)
	}
	return res
}

// TestParallelCoreEquivalenceAllApps runs every application without and with
// WithCores(4) and asserts identical results.
func TestParallelCoreEquivalenceAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep")
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := apps.Config{Nodes: 4, Variant: apps.Optimized}
			plain := runApp(t, app, cfg)
			cores := runApp(t, app, cfg, dex.WithCores(4))
			if !reflect.DeepEqual(plain, cores) {
				t.Fatalf("result diverged under WithCores(4):\nplain:        %+v\nWithCores(4): %+v",
					plain, cores)
			}
		})
	}
}

// TestParallelCoreEquivalenceProtocols covers every protocol. None of them
// serializes the lanes, which is visible in the scheduler's own count of
// sleeps taken in place.
func TestParallelCoreEquivalenceProtocols(t *testing.T) {
	app, _ := apps.ByName("kmn")
	for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate, dex.DistributedManager} {
		cfg := apps.Config{
			Nodes:   3,
			Variant: apps.Optimized,
			Opts:    []dex.Option{dex.WithProtocol(proto)},
		}
		plain := runApp(t, app, cfg)
		cores := runApp(t, app, cfg, dex.WithCores(4))
		if !reflect.DeepEqual(plain, cores) {
			t.Fatalf("protocol %v diverged under WithCores(4):\nplain:        %+v\nWithCores(4): %+v",
				proto, plain, cores)
		}
		if plain.Report.Sched.InPlaceWakes == 0 {
			t.Fatalf("protocol %v: no sleep taken in place; the lanes ran serialized", proto)
		}
	}
}

// TestParallelCoreEquivalenceChaos repeats the property under a fault plan
// combining message drops, a node crash, and a transient partition — the
// paths where cross-lane commits (thread death, lease expiry, reclaim) are
// hardest to keep deterministic.
func TestParallelCoreEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep")
	}
	plan := &dex.ChaosPlan{
		Seed: 11,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.05}},
		Partitions: []chaos.Partition{
			{A: []int{0, 1}, B: []int{2, 3}, From: chaos.Duration(2 * time.Millisecond), To: chaos.Duration(4 * time.Millisecond)},
		},
		Crashes: []chaos.Crash{{Node: 3, At: chaos.Duration(6 * time.Millisecond)}},
	}
	run := func(app apps.App, cfg apps.Config, opts ...dex.Option) (apps.Result, string) {
		cfg.Opts = append(append([]dex.Option(nil), cfg.Opts...), opts...)
		res, err := app.Run(cfg)
		if err != nil {
			// A crash plan may legitimately fail the run (e.g. a poisoned
			// barrier); the property is that the failure itself is identical.
			return apps.Result{}, err.Error()
		}
		return res, ""
	}
	for _, tc := range []struct {
		name    string
		restart bool
	}{{"kmn", false}, {"kmn", true}, {"bfs", false}} {
		app, _ := apps.ByName(tc.name)
		cfg := apps.Config{
			Nodes:          4,
			ThreadsPerNode: 4,
			Variant:        apps.Optimized,
			Restart:        tc.restart,
			Opts:           []dex.Option{dex.WithChaos(plan)},
		}
		plain, perr := run(app, cfg)
		cores, cerr := run(app, cfg, dex.WithCores(4))
		if perr != cerr {
			t.Fatalf("%s (restart=%v) error diverged under WithCores(4):\nplain:        %q\nWithCores(4): %q",
				tc.name, tc.restart, perr, cerr)
		}
		if !reflect.DeepEqual(plain, cores) {
			t.Fatalf("%s (restart=%v) under chaos diverged under WithCores(4):\nplain:        %+v\nWithCores(4): %+v",
				tc.name, tc.restart, plain, cores)
		}
	}
}
