package dex_test

import (
	"reflect"
	"testing"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
)

// These tests pin the parallel simulator core's central property: WithCores
// trades wall-clock time only. For the same configuration and seed, the full
// run outcome — the application's answer digest, the virtual elapsed time,
// and the entire core.Report (DSM, fabric, TLB, migration, chaos counters) —
// must be DeepEqual between the conservative-parallel scheduler running its
// lanes one after the other (one core) and on the worker pool.

// runApp executes one application with an explicit simulator core count.
func runApp(t *testing.T, app apps.App, cfg apps.Config, cores int) apps.Result {
	t.Helper()
	cfg.Opts = append(append([]dex.Option(nil), cfg.Opts...), dex.WithCores(cores))
	res, err := app.Run(cfg)
	if err != nil {
		t.Fatalf("%s cores=%d: %v", app.Name, cores, err)
	}
	return res
}

// TestParallelCoreEquivalenceAllApps runs every application at -cores 1 and
// -cores 4 and asserts identical results.
func TestParallelCoreEquivalenceAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep")
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := apps.Config{Nodes: 4, Variant: apps.Optimized}
			serial := runApp(t, app, cfg, 1)
			parallel := runApp(t, app, cfg, 4)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("result diverged between cores=1 and cores=4:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
		})
	}
}

// TestParallelCoreEquivalenceProtocols covers the home-migrate protocol too;
// it serializes the lanes at any core count, which must be outcome-invisible
// and is visible in the scheduler's own count of sleeps taken in place.
func TestParallelCoreEquivalenceProtocols(t *testing.T) {
	app, _ := apps.ByName("kmn")
	for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate} {
		cfg := apps.Config{
			Nodes:   3,
			Variant: apps.Optimized,
			Opts:    []dex.Option{dex.WithProtocol(proto)},
		}
		serial := runApp(t, app, cfg, 1)
		parallel := runApp(t, app, cfg, 4)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("protocol %v diverged between cores=1 and cores=4:\nserial:   %+v\nparallel: %+v",
				proto, serial, parallel)
		}
		got := serial.Report.Sched.InPlaceWakes
		if clamped := proto == dex.HomeMigrate; (got == 0) != clamped {
			t.Fatalf("protocol %v: %d sleeps taken in place, lanes serialized: %v", proto, got, clamped)
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
	run := func(app apps.App, cfg apps.Config, cores int) (apps.Result, string) {
		cfg.Opts = append(append([]dex.Option(nil), cfg.Opts...), dex.WithCores(cores))
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
		serial, serr := run(app, cfg, 1)
		parallel, perr := run(app, cfg, 4)
		if serr != perr {
			t.Fatalf("%s (restart=%v) error diverged between cores=1 and cores=4:\nserial:   %q\nparallel: %q",
				tc.name, tc.restart, serr, perr)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s (restart=%v) under chaos diverged between cores=1 and cores=4:\nserial:   %+v\nparallel: %+v",
				tc.name, tc.restart, serial, parallel)
		}
	}
}
