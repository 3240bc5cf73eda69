package exper

import (
	"fmt"
	"runtime"
	"sync"

	"dex"
	"dex/internal/apps"
)

// The evaluation grid decomposes into independent cells: one simulation —
// its own sim.Engine, fabric.Network, and application or microbenchmark
// run — identified by a key that captures every input (experiment kind,
// app, variant, node count, seed, workload size, and a fingerprint of the
// resolved cluster parameters). Cells are pure: equal keys produce equal
// results. The Runner exploits that twice — it executes cells concurrently
// on a bounded worker pool, and it memoizes them by key so a cell shared by
// several experiments (e.g. the migration microbenchmark behind Table II
// and Figure 3) runs once. Experiments submit every cell they need first,
// then assemble their table by waiting on the cells in a fixed order, so
// the output is byte-identical whatever the pool width.

// Runner executes experiment cells on a bounded worker pool with per-key
// memoization. It is safe for concurrent use; a single Runner is meant to
// be shared by every experiment of one harness invocation.
type Runner struct {
	sem chan struct{} // bounds concurrently executing cells

	mu        sync.Mutex
	cells     map[string]*Cell
	completed int

	progress func(Progress)
}

// Progress describes the pool state after one cell completed.
type Progress struct {
	Key       string // key of the cell that just completed
	Completed int    // cells finished so far
	Submitted int    // distinct cells submitted so far (memo hits excluded)
}

// NewRunner returns a runner executing at most parallel cells at once.
// parallel <= 0 selects GOMAXPROCS.
func NewRunner(parallel int) *Runner {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:   make(chan struct{}, parallel),
		cells: make(map[string]*Cell),
	}
}

// Parallel returns the worker-pool width.
func (r *Runner) Parallel() int { return cap(r.sem) }

// SetProgress installs a callback invoked when a cell has run, from the
// cell's goroutine and before anyone waiting on the cell is released, so a
// report of progress precedes whatever is made of the result. The callback
// must not submit cells or wait on them.
func (r *Runner) SetProgress(fn func(Progress)) {
	r.mu.Lock()
	r.progress = fn
	r.mu.Unlock()
}

// Cell is a handle on one submitted cell. Wait blocks until the cell has
// run (or returns immediately if it already has) and yields its result.
type Cell struct {
	key  string
	done chan struct{}
	val  any
}

// Key returns the cell's memoization key.
func (c *Cell) Key() string { return c.key }

// Wait returns the cell's result, blocking until it is available.
func (c *Cell) Wait() any {
	<-c.done
	return c.val
}

// Submit schedules fn to run on the pool under the given key and returns
// its cell. A key submitted before returns the existing cell without
// running fn again — fn must therefore be a pure function of the key,
// building all simulation state (engine, network, machine) itself and
// sharing nothing mutable with other cells.
func (r *Runner) Submit(key string, fn func() any) *Cell {
	r.mu.Lock()
	if c, ok := r.cells[key]; ok {
		r.mu.Unlock()
		return c
	}
	c := &Cell{key: key, done: make(chan struct{})}
	r.cells[key] = c
	r.mu.Unlock()
	go func() {
		r.sem <- struct{}{}
		v := fn()
		<-r.sem
		c.val = v
		r.complete(key)
		close(c.done)
	}()
	return c
}

func (r *Runner) complete(key string) {
	r.mu.Lock()
	r.completed++
	ev := Progress{Key: key, Completed: r.completed, Submitted: len(r.cells)}
	fn := r.progress
	r.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// AppResult is the value of an application cell.
type AppResult struct {
	Res apps.Result
	Err error
}

// SubmitApp submits one application run as a memoized cell.
func (r *Runner) SubmitApp(app apps.App, cfg apps.Config) *Cell {
	cfg = cfg.Normalized()
	key := fmt.Sprintf("app/%s/variant=%d/nodes=%d/threads=%d/size=%d/seed=%d/params=%s",
		app.Name, cfg.Variant, cfg.Nodes, cfg.ThreadsPerNode, cfg.Size, cfg.Seed,
		dex.ParamsFingerprint(cfg.Nodes, cfg.Opts...))
	return r.Submit(key, func() any {
		res, err := app.Run(cfg)
		return AppResult{Res: res, Err: err}
	})
}

// WaitApp unwraps an application cell.
func WaitApp(c *Cell) (apps.Result, error) {
	ar := c.Wait().(AppResult)
	return ar.Res, ar.Err
}

// Sweep runs one cell per config on r's pool (r may be nil, see ensure), each
// under the key its config gives it, and returns their results in config
// order once all are in. Cells an experiment wants running meanwhile are
// submitted before the call.
func Sweep[C, R any](r *Runner, key func(C) string, configs []C, run func(C) R) []R {
	r = ensure(r)
	cells := make([]*Cell, len(configs))
	for i, c := range configs {
		cells[i] = r.Submit(key(c), func() any { return run(c) })
	}
	out := make([]R, len(configs))
	for i, c := range cells {
		out[i] = c.Wait().(R)
	}
	return out
}

// keyf is the usual key of a sweep: format applied to the config.
func keyf[C any](format string) func(C) string {
	return func(c C) string { return fmt.Sprintf(format, c) }
}

// ensure lets experiment functions be called directly (tests, one-off
// tools) without constructing a runner; such calls run their cells
// sequentially.
func ensure(r *Runner) *Runner {
	if r == nil {
		return NewRunner(1)
	}
	return r
}
