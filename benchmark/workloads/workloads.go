// Package workloads defines the six benchmark workloads. A workload is a
// fixed list of simulation runs — one iteration — built from a seed; the
// harness in the parent package times iterations and derives metrics from
// the reports an iteration returns. Nothing here reads a clock except
// through the span log.
//
// Why these six (the one-line reasons are in BENCHMARK.json, the long ones
// in benchmark/README.md): serve is simulator-bound and write-heavy,
// serve_cores is the only user of the parallel scheduler, serve_chaos
// drives the loss and crash recovery paths, reads is the read-replication
// counterpart to serve's ownership ping-pong under all three coherence
// policies, suite is what CI runs, and apps_full is bound by application
// compute — the workload a simulator change must not move.
package workloads

import (
	"fmt"
	"time"

	"dex"
	"dex/benchmark/spans"
	"dex/internal/exper"
	"dex/internal/serve"
)

// Config selects how a workload is instantiated.
type Config struct {
	// Seed feeds load.Spec.Seed, apps.Config.Seed, dex.WithSeed and the
	// chaos plan.
	Seed int64
	// Quick shrinks every workload to roughly 1/8 scale; the package test
	// uses it.
	Quick bool
	// Root is the module root; suite reads the dexbench golden from it.
	Root string
	// Log receives a span around every call into the system (nil: none);
	// the spans of set-up hang under Span.
	Log  *spans.Log
	Span int
}

// Run is the outcome of one simulation run of an iteration.
type Run struct {
	// Label names the run within its workload: a ladder rung ("r100"), a
	// policy ("wi"), an application ("kmn"), or "suite".
	Label string
	// Elapsed is the run's simulated time.
	Elapsed time.Duration
	// Check is the run's output digest; the harness compares it with
	// testdata for the default seed.
	Check string
	// Err is a run error, an exceeded event limit, or a failed output check.
	Err error
	// Dex is the cluster report; nil when the run exposes none (suite).
	Dex *dex.Report
	// Serve is the serving report of a serve* run and Window its traffic
	// window.
	Serve  *serve.Report
	Window time.Duration
	// Rec is the run's recorder on a traced iteration.
	Rec *dex.Recorder
}

// Iteration is everything one iteration produced.
type Iteration struct {
	Runs []Run
	// Tables and Cells are set by suite: the rendered experiments and the
	// number of distinct simulation cells behind them.
	Tables []exper.Table
	Cells  int
}

// Workload is one instantiated workload.
type Workload struct {
	Name string
	// ScheduleTime is the host time set-up spent in load.Schedule and
	// Requests the number of requests generated; zero outside serve*.
	ScheduleTime time.Duration
	Requests     int

	// Iterate runs one iteration. Spans it opens hang under parent. A
	// traced iteration attaches a fresh recorder to every run that takes
	// options.
	Iterate func(parent int, traced bool) Iteration
}

// Names lists the workloads in reporting order.
func Names() []string {
	return []string{"serve", "serve_cores", "serve_chaos", "reads", "suite", "apps_full"}
}

// New performs a workload's set-up — schedule generation, golden load —
// and returns it ready to iterate.
func New(name string, cfg Config) (*Workload, error) {
	switch name {
	case "serve", "serve_cores", "serve_chaos":
		return newServe(name, cfg)
	case "reads":
		return newReads(cfg), nil
	case "suite":
		return newSuite(cfg)
	case "apps_full":
		return newAppsFull(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names())
}

// policies are the coherence policies by the short names the tools use.
var policies = []struct {
	short string
	proto dex.Protocol
}{
	{"wi", dex.WriteInvalidate},
	{"home", dex.HomeMigrate},
	{"dist", dex.DistributedManager},
}

// runOpts builds the options every run carries: an event limit, so that a
// livelock fails the run in seconds instead of hanging the pipeline, and a
// recorder on traced iterations.
func runOpts(limit uint64, traced bool, extra ...dex.Option) ([]dex.Option, *dex.Recorder) {
	opts := append([]dex.Option{dex.WithEventLimit(limit)}, extra...)
	var rec *dex.Recorder
	if traced {
		rec = dex.NewRecorder()
		opts = append(opts, dex.WithObserver(rec))
	}
	return opts, rec
}
