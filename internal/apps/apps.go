// Package apps implements the paper's eight benchmark applications (§V) as
// DeX programs, each in three variants:
//
//   - Baseline: the unmodified single-machine program (run on one node).
//   - Initial: the naive DeX conversion of §V-A — thread-migration calls
//     inserted at parallel regions, with the false-sharing pathologies the
//     paper diagnoses deliberately preserved (thread arguments packed on a
//     shared page, blind global flag/counter updates, unaligned partitions,
//     parent-stack reads).
//   - Optimized: the §IV/§V-C version — page-aligned per-thread data,
//     locally staged updates merged once per phase, read-only globals on
//     their own replicated pages.
//
// Every application computes real results on real data in the shared
// address space and self-checks against a sequential reference, so the
// performance experiments double as correctness tests of the whole stack.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dex"
)

// Variant selects the porting stage of an application.
type Variant int

// Porting stages (see package comment).
const (
	Baseline Variant = iota + 1
	Initial
	Optimized
)

func (v Variant) String() string {
	switch v {
	case Baseline:
		return "baseline"
	case Initial:
		return "initial"
	case Optimized:
		return "optimized"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant resolves the -variant flag of every command: "baseline",
// "initial" or "optimized".
func ParseVariant(s string) (Variant, error) {
	for v := Baseline; v <= Optimized; v++ {
		if s == v.String() {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

// Size selects the workload scale.
type Size int

// Workload scales: SizeTest keeps unit tests fast; SizeFull is used by the
// experiment harness to regenerate the paper's figures.
const (
	SizeTest Size = iota + 1
	SizeFull
)

// ParseSize resolves the -size flag of every command: "test" or "full".
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "full":
		return SizeFull, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// Config parameterizes one application run.
type Config struct {
	// Nodes is the cluster size; Baseline runs force it to 1.
	Nodes int
	// ThreadsPerNode matches the paper's 8×n-thread configuration.
	ThreadsPerNode int
	Variant        Variant
	Size           Size
	Seed           int64
	// Restart runs checkpoint/restart-capable workers where the app
	// supports them (the entries of Registry with Restartable set): each
	// worker checkpoints at natural boundaries and, if its node is
	// declared dead under fault injection, is re-spawned at the origin
	// from the checkpoint instead of failing the run. A no-op without a
	// chaos plan.
	Restart bool
	// Opts are extra cluster options (e.g. dex.WithObserver for profiling).
	Opts []dex.Option
}

func (cfg Config) withDefaults() Config {
	if cfg.ThreadsPerNode == 0 {
		cfg.ThreadsPerNode = 8
	}
	if cfg.Variant == 0 {
		cfg.Variant = Optimized
	}
	if cfg.Size == 0 {
		cfg.Size = SizeTest
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Variant == Baseline {
		cfg.Nodes = 1
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	return cfg
}

// Normalized returns cfg with every defaulted field resolved to its
// effective value — the same resolution Run applies. Two configurations
// with equal normalized forms describe the same run, which lets experiment
// harnesses key memoized cells on them.
func (cfg Config) Normalized() Config { return cfg.withDefaults() }

func (cfg Config) threads() int { return cfg.ThreadsPerNode * cfg.Nodes }

func (cfg Config) cluster() *dex.Cluster {
	opts := append([]dex.Option{dex.WithSeed(cfg.Seed)}, cfg.Opts...)
	return dex.NewCluster(cfg.Nodes, opts...)
}

// Result is the outcome of one application run.
type Result struct {
	App     string
	Variant Variant
	Nodes   int
	Threads int
	Elapsed time.Duration
	Report  dex.Report
	// Check is an application-defined answer digest; equal configurations
	// must produce equal digests regardless of node count and variant
	// (within the app's stated tolerance).
	Check string
}

// result is the Result of a finished, verified run of app under cfg.
func (cfg Config) result(app string, elapsed time.Duration, report dex.Report, check string) Result {
	return Result{App: app, Variant: cfg.Variant, Nodes: cfg.Nodes, Threads: cfg.threads(),
		Elapsed: elapsed, Report: report, Check: check}
}

// App couples a name with its runner.
type App struct {
	Name string
	Desc string
	Run  func(cfg Config) (Result, error)
	// Restartable marks apps whose workers honour Config.Restart with
	// checkpoint/restart recovery under fault injection.
	Restartable bool
}

// All returns the eight applications in the paper's order.
func All() []App {
	return []App{
		{Name: "grp", Desc: "string match over a text corpus (Phoenix)", Run: RunGRP},
		{Name: "kmn", Desc: "k-means clustering (Phoenix)", Run: RunKMN, Restartable: true},
		{Name: "bt", Desc: "NPB BT block-tridiagonal solver (OpenMP, 15 regions)", Run: RunBT},
		{Name: "ep", Desc: "NPB EP embarrassingly parallel (OpenMP, 1 region)", Run: RunEP},
		{Name: "ft", Desc: "NPB FT 2-D FFT with all-to-all transposes (OpenMP, 7 regions)", Run: RunFT},
		{Name: "blk", Desc: "PARSEC blackscholes option pricing (pthreads)", Run: RunBLK},
		{Name: "bfs", Desc: "Polymer breadth-first search (NUMA-aware)", Run: RunBFS},
		{Name: "bp", Desc: "Polymer belief propagation (NUMA-aware, memory bound)", Run: RunBP},
	}
}

// Registry returns every runnable program: the paper's eight benchmark
// applications of All plus the serving workload, which is not part of the
// §V benchmark suite but shares the same runner interface.
func Registry() []App {
	return append(All(),
		App{Name: "srv", Desc: "multi-tenant KV/aggregation serving with SLO report (internal/serve)", Run: RunSRV, Restartable: true},
	)
}

// Restartable lists the names of registry entries that honour
// Config.Restart, in registry order.
func Restartable() []string {
	var names []string
	for _, a := range Registry() {
		if a.Restartable {
			names = append(names, a.Name)
		}
	}
	return names
}

// ByName looks up a program in the registry.
func ByName(name string) (App, bool) {
	for _, a := range Registry() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// nodeOf returns the node assignment of worker id: contiguous blocks, as
// the paper assigns 8 threads per node.
func nodeOf(id, threads, nodes int) int { return id * nodes / threads }

// workerSet runs body on cfg.threads() worker threads (spawnWorkers) and
// blocks the main thread until all of them finish (joinWorkers).
func workerSet(main *dex.Thread, cfg Config, body func(w *dex.Thread, id int) error) error {
	ws, err := spawnWorkers(main, cfg, body)
	if err != nil {
		return err
	}
	return joinWorkers(main, ws)
}

// spawnWorkers starts body on cfg.threads() worker threads and returns them
// without blocking. For non-Baseline variants each worker migrates to its
// assigned node before body and returns to the origin afterwards — the
// paper's one-line-in/one-line-out conversion (§V-A).
func spawnWorkers(main *dex.Thread, cfg Config, body func(w *dex.Thread, id int) error) ([]*dex.Thread, error) {
	threads := cfg.threads()
	ws := make([]*dex.Thread, 0, threads)
	for i := 0; i < threads; i++ {
		id := i
		node := nodeOf(id, threads, cfg.Nodes)
		w, err := main.Spawn(func(t *dex.Thread) error {
			if cfg.Variant != Baseline {
				if err := t.Migrate(node); err != nil {
					return err
				}
			}
			if err := body(t, id); err != nil {
				return err
			}
			if cfg.Variant != Baseline {
				return t.MigrateBack()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// joinWorkers joins every worker in ws, in order, and returns the first
// error.
func joinWorkers(main *dex.Thread, ws []*dex.Thread) error {
	var joinErr error
	for _, w := range ws {
		// Keep joining even after a failure so every worker is accounted
		// for; under fault injection Join surfaces the crash error of a
		// worker lost with its node.
		if err := main.Join(w); err != nil && joinErr == nil {
			joinErr = err
		}
	}
	return joinErr
}

// --- bulk data helpers -----------------------------------------------------

// writeWords stores n little-endian words of size bytes at addr straight into
// the frames, word(i) the i-th, called once per word in order. It allocates
// nothing: a word split across two pages passes through a scratch array.
func writeWords(t *dex.Thread, addr dex.Addr, n, size int, word func(i int) uint64) error {
	var b [8]byte
	return t.WriteFunc(addr, n*size, func(dst []byte, off int) {
		for i, r := off/size, off%size; len(dst) > 0; i, r = i+1, 0 {
			if r == 0 {
				binary.LittleEndian.PutUint64(b[:], word(i))
				if len(dst) >= 8 { // what a 4-byte word spills, the next one overwrites
					*(*[8]byte)(dst) = b
					dst = dst[size:]
					continue
				}
			}
			dst = dst[copy(dst, b[r:size]):]
		}
	})
}

// readWords loads n little-endian words of size bytes at addr straight out of
// the frames, handing each to set in order.
func readWords(t *dex.Thread, addr dex.Addr, n, size int, set func(i int, w uint64)) error {
	var b [8]byte
	mask := uint64(1)<<(8*size) - 1 // all ones at size 8, where the shift gives 0
	return t.ReadFunc(addr, n*size, func(src []byte, off int) {
		for i, r := off/size, off%size; len(src) > 0; i, r = i+1, 0 {
			if r == 0 && len(src) >= 8 {
				set(i, binary.LittleEndian.Uint64(src)&mask)
				src = src[size:]
				continue
			}
			k := copy(b[r:size], src)
			if r+k == size {
				set(i, binary.LittleEndian.Uint64(b[:]))
			}
			src = src[k:]
		}
	})
}

func writeFloat64s(t *dex.Thread, addr dex.Addr, vals []float64) error {
	return writeWords(t, addr, len(vals), 8, func(i int) uint64 { return math.Float64bits(vals[i]) })
}

func readFloat64s(t *dex.Thread, addr dex.Addr, n int) ([]float64, error) {
	out := make([]float64, n)
	return out, readWords(t, addr, n, 8, func(i int, w uint64) { out[i] = math.Float64frombits(w) })
}

// f64At decodes the i-th little-endian float64 of buf where a kernel uses
// it, so a buffer read from the simulated memory needs no decoded copy.
func f64At(buf []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
}

func writeUint32s(t *dex.Thread, addr dex.Addr, vals []uint32) error {
	return writeWords(t, addr, len(vals), 4, func(i int) uint64 { return uint64(vals[i]) })
}

func readUint32s(t *dex.Thread, addr dex.Addr, n int) ([]uint32, error) {
	out := make([]uint32, n)
	return out, readWords(t, addr, n, 4, func(i int, w uint64) { out[i] = uint32(w) })
}

func writeUint64s(t *dex.Thread, addr dex.Addr, vals []uint64) error {
	return writeWords(t, addr, len(vals), 8, func(i int) uint64 { return vals[i] })
}

func readUint64s(t *dex.Thread, addr dex.Addr, n int) ([]uint64, error) {
	out := make([]uint64, n)
	return out, readWords(t, addr, n, 8, func(i int, w uint64) { out[i] = w })
}

// partition splits n items into parts ranges.
func partition(n, parts, i int) (lo, hi int) {
	return n * i / parts, n * (i + 1) / parts
}

// checksumFloats produces a stable digest of a float slice, rounding so
// that accumulation-order differences below tol collapse to the same
// digest.
func checksumFloats(vals []float64, tol float64) string {
	var sum, asum float64
	for _, v := range vals {
		sum += v
		if v < 0 {
			asum -= v
		} else {
			asum += v
		}
	}
	r := func(x float64) float64 {
		if tol <= 0 {
			return x
		}
		return math.Round(x/tol) * tol
	}
	return fmt.Sprintf("n=%d sum=%.6g abs=%.6g", len(vals), r(sum), r(asum))
}
