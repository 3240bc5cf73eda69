package workloads

import (
	"fmt"
	"runtime"
	"time"

	"dex"
	"dex/internal/chaos"
	"dex/internal/load"
	"dex/internal/serve"
)

const (
	serveNodes   = 8
	serveTenants = 8
	// serveWindow is the ladder's traffic window; ≈15 k requests at ×1.0,
	// enough for a p999 with 15 samples beyond it.
	serveWindow = 80 * time.Millisecond
	// serveCrashAt is where serve_chaos loses node 7: three quarters into
	// DefaultSpec's 40 ms window.
	serveCrashAt = 30 * time.Millisecond
	// chaosSeeds is how many seeds one iteration of serve_chaos covers; its
	// runs are labelled "wi.0" to "wi.3".
	chaosSeeds = 4
	// serveEventLimit is ≈10× the events of the heaviest run (×2.0, ≈1.6 M).
	serveEventLimit = 20_000_000
)

// serveRun is one serve.Run of an iteration.
type serveRun struct {
	label   string
	spec    load.Spec
	restart bool
	opts    []dex.Option
}

// ladderSpec is serve.DefaultSpec over the ladder window with every
// tenant's rate scaled by rung and the token buckets cleared, so the
// ladder loads the backend and not the admission limit.
func ladderSpec(seed int64, window time.Duration, rung float64) load.Spec {
	spec := serve.DefaultSpec(serveTenants, false, seed)
	spec.Duration = window
	for i := range spec.Tenants {
		spec.Tenants[i].RPS *= rung
		spec.Tenants[i].LimitRPS = 0
	}
	return spec
}

func newServe(name string, cfg Config) (*Workload, error) {
	scale := time.Duration(1)
	if cfg.Quick {
		scale = 8
	}
	var runs []serveRun
	switch name {
	case "serve":
		// Open loop, four rates: the ladder crosses the write-invalidate
		// knee between ×1.0 and ×1.5.
		for _, rung := range []float64{0.5, 1.0, 1.5, 2.0} {
			runs = append(runs, serveRun{
				label: fmt.Sprintf("r%03.0f", rung*100),
				spec:  ladderSpec(cfg.Seed, serveWindow/scale, rung),
			})
		}
	case "serve_cores":
		// The same traffic on the parallel scheduler: one rung below the
		// knee and one above.
		for _, rung := range []float64{1.0, 2.0} {
			runs = append(runs, serveRun{
				label: fmt.Sprintf("r%03.0f", rung*100),
				spec:  ladderSpec(cfg.Seed, serveWindow/scale, rung),
				opts:  []dex.Option{dex.WithCores(runtime.NumCPU())},
			})
		}
	case "serve_chaos":
		// DefaultSpec untouched, so token-bucket admission and its 429
		// path run, under one fault plan. Write-invalidate only: under
		// this plan home-migrate and the distributed manager livelock on
		// some seeds (README.md), and a workload must not fail on any.
		// How much is dropped, duplicated and replayed differs by ±5 % from
		// one seed to the next, so an iteration runs the plan under
		// chaosSeeds seeds derived from the given one and the work of an
		// iteration differs half as much.
		for k := int64(0); k < chaosSeeds; k++ {
			seed := cfg.Seed + k<<32
			spec := serve.DefaultSpec(serveTenants, false, seed)
			spec.Duration /= scale
			plan := &dex.ChaosPlan{
				Seed:    seed,
				Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.01}},
				Dup:     []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.05}},
				Crashes: []chaos.Crash{{Node: serveNodes - 1, At: chaos.Duration(serveCrashAt / scale)}},
			}
			runs = append(runs, serveRun{label: fmt.Sprintf("wi.%d", k), spec: spec, restart: true, opts: []dex.Option{dex.WithChaos(plan)}})
		}
	}

	w := &Workload{Name: name}
	// serve.Run regenerates the schedule itself; set-up generates it once
	// here to count the requests and to time the generator on its own.
	for _, r := range runs {
		sp := cfg.Log.Begin(cfg.Span, "load.Schedule")
		sched, err := load.Schedule(r.spec)
		w.ScheduleTime += cfg.Log.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, r.label, err)
		}
		for _, tenant := range sched {
			w.Requests += len(tenant)
		}
	}
	w.Iterate = func(parent int, traced bool) Iteration {
		var it Iteration
		for _, r := range runs {
			opts, rec := runOpts(serveEventLimit, traced, r.opts...)
			sp := cfg.Log.Begin(parent, "serve.Run "+r.label)
			rep, err := serve.Run(serve.Config{Nodes: serveNodes, Spec: r.spec, Restart: r.restart, Opts: opts})
			cfg.Log.End(sp)
			run := Run{Label: r.label, Err: err, Rec: rec, Window: r.spec.Duration}
			if err == nil {
				// serve.Run has already checked exactly-once and
				// admitted == served; the digest pins the answer.
				run.Elapsed, run.Check = rep.Elapsed, rep.Digest()
				run.Serve, run.Dex = &rep, &rep.Dex
			}
			it.Runs = append(it.Runs, run)
		}
		return it
	}
	return w, nil
}
