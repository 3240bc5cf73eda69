// Package dex is a Go reproduction of DeX ("DeX: Scaling Applications
// Beyond Machine Boundaries", ICDCS 2020): an execution environment that
// extends a process beyond a single machine by letting its threads migrate
// across nodes while transparently sharing one sequentially-consistent
// address space.
//
// The library runs on a deterministic discrete-event cluster simulator: a
// Cluster models a rack of machines connected by an InfiniBand-like fabric,
// and every mechanism of the paper — execution-context migration through
// per-node remote workers, the page-level read-replicate/write-invalidate
// consistency protocol with leader/follower fault coalescing, futex-based
// synchronization via work delegation to the origin, on-demand VMA
// synchronization, and the RDMA messaging layer with send/receive buffer
// pools and the hybrid RDMA sink — is implemented for real against real
// bytes in real 4 KB pages, with latencies charged in virtual time using
// the paper's measured constants.
//
// A minimal program:
//
//	cluster := dex.NewCluster(4)
//	report, err := cluster.Run(func(t *dex.Thread) error {
//		addr, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "counter")
//		if err != nil {
//			return err
//		}
//		w, err := t.Spawn(func(w *dex.Thread) error {
//			if err := w.Migrate(1); err != nil { // hop to another machine
//				return err
//			}
//			_, err := w.AddUint64(addr, 1) // same memory, different node
//			return err
//		})
//		if err != nil {
//			return err
//		}
//		return t.Join(w)
//	})
package dex

import (
	"fmt"
	"os"
	"time"

	"dex/internal/chaos"
	"dex/internal/core"
	"dex/internal/dsm"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/profile"
)

// Re-exported fundamental types. Thread and Report are defined in the
// runtime layer; the aliases make the public API self-contained.
type (
	// Thread is one execution context of a DeX process. See the methods on
	// core.Thread: Migrate, Read/Write, Compute, Spawn/Join, futexes.
	Thread = core.Thread
	// Process is a running DeX process.
	Process = core.Process
	// Report summarizes a process run: elapsed virtual time, protocol and
	// interconnect counters, migration records.
	Report = core.Report
	// MigrationRecord is the phase breakdown of one thread migration.
	MigrationRecord = core.MigrationRecord
	// Addr is a virtual address in the shared address space.
	Addr = mem.Addr
	// Prot is a memory-protection mask.
	Prot = mem.Prot
	// Trace is the page-fault profiler (§IV-A of the paper).
	Trace = profile.Trace
	// Recorder is the observability recorder: spans, latency histograms,
	// and gauge time series for a whole cluster run. Attach one with
	// WithObserver, then export with WriteTrace (Perfetto JSON) or
	// WriteMetrics (text summary).
	Recorder = obs.Recorder
	// ChaosPlan is a deterministic fault schedule for WithChaos: per-link
	// drop/duplicate/delay rules, bounded partitions, receiver-not-ready
	// storms, and whole-node crashes, all driven by the plan's own seed.
	ChaosPlan = chaos.Plan
	// ChaosReport summarizes injected faults and recovery for a run; found
	// at Report.Chaos (nil when no plan was active).
	ChaosReport = core.ChaosReport
)

// PageSize is the consistency granularity (4 KB, as in the paper).
const PageSize = mem.PageSize

// Protection bits for Mmap and Mprotect.
const (
	ProtRead  = mem.ProtRead
	ProtWrite = mem.ProtWrite
)

// Errors surfaced by thread operations.
var (
	ErrSegfault   = core.ErrSegfault
	ErrProtection = core.ErrProtection
	ErrBadNode    = core.ErrBadNode
)

// NewRecorder returns an empty observability recorder to pass to
// WithObserver.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewFaultRecorder returns a recorder for WithObserver that keeps only what
// ProfileOf reads — one span per page fault and invalidation — and takes no
// gauge samples: the cheap way to profile a long run.
func NewFaultRecorder() *Recorder { return obs.NewFaultRecorder() }

// ProfileOf returns the page-fault profile of the run rec observed, a full
// recorder or a fault recorder alike; call it once the run is over.
// SetRegions(report.Regions) makes its analyses name program objects.
func ProfileOf(rec *Recorder) *Trace { return profile.FromRecorder(rec) }

// Option configures a Cluster.
type Option interface {
	apply(*core.Params)
}

type optionFunc func(*core.Params)

func (f optionFunc) apply(p *core.Params) { f(p) }

// WithCoresPerNode sets the core count of every node (default 8, the
// paper's testbed).
func WithCoresPerNode(n int) Option {
	return optionFunc(func(p *core.Params) { p.CoresPerNode = n })
}

// WithMemBandwidth sets the per-node memory-bus bandwidth in bytes/second.
func WithMemBandwidth(bytesPerSecond float64) Option {
	return optionFunc(func(p *core.Params) { p.MemBandwidth = bytesPerSecond })
}

// WithSeed seeds the deterministic simulation (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(p *core.Params) { p.Seed = seed })
}

// WithCores is accepted and changes nothing: a simulation runs on one
// goroutine, and host parallelism is across simulations (dexbench -parallel).
// The option exists because the frozen benchmark's serve_cores workload passes
// it, and goes when that workload does.
func WithCores(n int) Option { return optionFunc(func(*core.Params) {}) }

// WithObserver attaches an observability recorder to the cluster: every
// layer (fabric, DSM protocol, migration) emits spans and latency
// observations into it, and a periodic sampler records gauge time series.
// A nil recorder is allowed and disables recording. Tracing never perturbs
// the simulation: with the recorder attached, simulated outcomes (reports,
// stats, results) are identical to an untraced run of the same seed, and the
// simulator's lanes stay independent.
func WithObserver(rec *Recorder) Option {
	return optionFunc(func(p *core.Params) { p.Obs = rec })
}

// WithChaos attaches a deterministic fault-injection plan to the cluster
// (drop/dup/delay rules, partitions, RNR storms, node crashes). An empty or
// nil plan is exactly equivalent to not calling WithChaos: the run is
// byte-identical to a fault-free one. With a non-empty plan, the same
// workload seed and plan always reproduce the same faults, the same
// recovery, and the same report.
func WithChaos(plan *ChaosPlan) Option {
	return optionFunc(func(p *core.Params) {
		if plan.Empty() {
			return
		}
		p.Chaos = plan
	})
}

// WithEventLimit aborts the run with an error after n simulation events.
// Chaos runs default to a large backstop; fault-free runs default to none.
func WithEventLimit(n uint64) Option {
	return optionFunc(func(p *core.Params) { p.EventLimit = n })
}

// ParseChaosPlan decodes a JSON fault plan (as written for dexrun -chaos)
// and validates it against a cluster of the given node count.
func ParseChaosPlan(data []byte, nodes int) (*ChaosPlan, error) {
	plan, err := chaos.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(nodes); err != nil {
		return nil, err
	}
	return plan, nil
}

// LoadChaosPlan reads the JSON fault plan in the file at path (the tools'
// -chaos flag) and validates it against a cluster of the given node count.
func LoadChaosPlan(path string, nodes int) (*ChaosPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseChaosPlan(data, nodes)
}

// Protocol selects the coherence policy of the DSM layer.
type Protocol = dsm.Protocol

// Coherence protocols for WithProtocol.
const (
	// WriteInvalidate is the paper's protocol (§III-B): the origin owns
	// every page's directory entry and serves all faults. The default.
	WriteInvalidate = dsm.WriteInvalidate
	// HomeMigrate moves a page's directory home to the last exclusive
	// writer, so repeated faults on writer-local pages skip the origin
	// round trip. It is DistributedManager with every lookup starting at
	// the origin: under WithChaos, pages whose home is declared dead are
	// rebuilt at the origin and in-flight requests fail over there.
	HomeMigrate = dsm.HomeMigrate
	// DistributedManager hash-shards the ownership directory across every
	// node: lookups start at a page's static anchor shard, authority follows
	// the last writer, and departed authority leaves forwarding pointers
	// that path-compression hints collapse to at most one hop. Shards serve
	// on their own lanes, and under WithChaos a crashed shard's directory
	// slice is rebuilt at each page's live anchor.
	DistributedManager = dsm.DistributedManager
)

// ParseProtocol parses a protocol name ("wi", "home", "dist", or the long
// forms "write-invalidate", "home-migrate", "distributed-manager") as
// accepted by dexrun -protocol.
func ParseProtocol(s string) (Protocol, error) { return dsm.ParseProtocol(s) }

// ProtocolHelp renders the -protocol flag help text used by the commands.
func ProtocolHelp() string { return dsm.ProtocolHelp() }

// WithProtocol selects the coherence policy (default WriteInvalidate).
// Every policy is hardened against WithChaos fault injection: requests
// retransmit on loss, duplicates are absorbed idempotently, and a dead
// node's directory pages are rehomed — to the origin under HomeMigrate, to
// each page's live anchor shard under DistributedManager — with stale home
// hints and forwarding pointers repaired.
func WithProtocol(proto Protocol) Option {
	return optionFunc(func(p *core.Params) { p.DSM.Protocol = proto })
}

// ParamsFingerprint returns a stable digest of the fully resolved cluster
// parameters for a node count and option set. Two configurations with equal
// fingerprints build identical clusters, so experiment harnesses can use the
// fingerprint to key memoized simulation cells. WithObserver embeds the
// recorder's identity, which keeps observed configurations from ever sharing
// a cell.
func ParamsFingerprint(nodes int, opts ...Option) string {
	params := core.DefaultParams(nodes)
	for _, o := range opts {
		o.apply(&params)
	}
	// Params.Chaos is a pointer, which %+v would print as an address;
	// format with it nil'd out and append the plan's content digest instead,
	// so equal plans share a fingerprint and distinct plans never do.
	plan := params.Chaos
	params.Chaos = nil
	fp := fmt.Sprintf("%+v", params)
	if !plan.Empty() {
		fp += " chaos{" + plan.Fingerprint() + "}"
	}
	return fp
}

// Cluster is a simulated rack of machines running DeX.
type Cluster struct {
	machine *core.Machine
	params  core.Params
}

// NewCluster creates a cluster of nodes machines (8 cores each by default)
// connected by a 56 Gbps InfiniBand-like fabric.
func NewCluster(nodes int, opts ...Option) *Cluster {
	params := core.DefaultParams(nodes)
	for _, o := range opts {
		o.apply(&params)
	}
	return &Cluster{machine: core.NewMachine(params), params: params}
}

// Nodes returns the number of machines in the cluster.
func (c *Cluster) Nodes() int { return c.machine.Nodes() }

// FaultInjection reports whether a non-empty chaos plan is attached to the
// cluster. Fault-tolerant applications use it to decide whether to pay for
// durability work that only matters when state can actually be lost (e.g.
// gating in-flight-slot reuse on checkpoint coverage).
func (c *Cluster) FaultInjection() bool { return c.params.Chaos != nil }

// Machine exposes the underlying runtime for advanced use (experiment
// harnesses, tests).
func (c *Cluster) Machine() *core.Machine { return c.machine }

// Start creates a process originating at node 0 whose main thread runs
// main. Use Wait to run the simulation to completion.
func (c *Cluster) Start(main func(*Thread) error) *Process {
	return c.machine.NewProcess(0, main)
}

// Wait runs the simulation until every process finishes and returns the
// first error (application or simulation).
func (c *Cluster) Wait() error { return c.machine.Run() }

// Run is the single-process convenience: it starts main at node 0, runs to
// completion, and returns the process report.
func (c *Cluster) Run(main func(*Thread) error) (Report, error) {
	p := c.Start(main)
	if err := c.Wait(); err != nil {
		return p.Report(), err
	}
	return p.Report(), nil
}

// Elapsed returns the current virtual time of the cluster.
func (c *Cluster) Elapsed() time.Duration { return c.machine.Engine().Now() }

// String describes the cluster configuration.
func (c *Cluster) String() string {
	return fmt.Sprintf("dex.Cluster{nodes: %d, cores/node: %d}", c.params.Nodes, c.params.CoresPerNode)
}
