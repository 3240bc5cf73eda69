// Package core implements DeX's distributed execution model (§III-A of the
// paper): processes whose threads migrate freely across the nodes of a
// rack-scale cluster while sharing one sequentially-consistent address
// space.
//
// A Machine is a simulated cluster: nodes with cores and a memory bus,
// connected by the fabric interconnect. A Process owns the authoritative
// address space at its origin node, a DSM protocol manager, a futex table,
// and one remote worker per node it has expanded to. Threads execute
// application code as simulator tasks; Migrate relocates a thread's
// execution locus, work delegation runs stateful OS services (futex, VMA
// manipulation) at the origin, and on-demand VMA synchronization keeps
// remote VMA caches lazily consistent (§III-D).
package core

import (
	"fmt"
	"time"

	"dex/internal/chaos"
	"dex/internal/dsm"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// The node and delegation costs of the cost model; the migration costs are
// in migrate.go.
const (
	// busCongestion inflates memory-bus service time per concurrent stream,
	// modeling memory-controller interference — the source of the paper's
	// super-linear BP speedup when load spreads across nodes.
	busCongestion float64 = 0.12
	// delegateDispatch is the origin-side cost of dispatching one delegated
	// work request to the paired original thread.
	delegateDispatch time.Duration = 2 * time.Microsecond
	// delegateSize is the wire size of a delegation request/reply.
	delegateSize int = 96
	// spawnCost is the cost of creating a thread at the origin.
	spawnCost time.Duration = 15 * time.Microsecond
)

// Params configures a simulated cluster.
type Params struct {
	// Nodes is the number of machines in the rack.
	Nodes int
	// CoresPerNode is the number of CPU cores per machine.
	CoresPerNode int
	// MemBandwidth is the per-node memory-bus bandwidth in bytes/second
	// shared by all cores of a node; it is what saturates first for
	// memory-bound applications (the paper's BP observation, §V-B).
	MemBandwidth float64
	// EagerVMASync broadcasts every VMA change to all workers instead of
	// only shrinks/downgrades (ablation A3).
	EagerVMASync bool

	Fabric fabric.Params
	DSM    dsm.Params

	// Obs, when non-nil, records spans, histograms, and gauge samples for
	// the whole cluster (fabric messages, DSM protocol phases, thread
	// migrations, recovery lifecycle). The recorder adds pure bookkeeping
	// on already-scheduled events — it never schedules simulation work of
	// its own; gauges are sampled by the engine between scheduler windows —
	// so enabling it cannot change simulated outcomes, and it does not
	// serialize the lanes.
	Obs *obs.Recorder
	// Seed seeds the deterministic simulation.
	Seed int64

	// Chaos, when non-nil and non-empty, attaches the deterministic fault
	// injector to the fabric and schedules the plan's node crashes. The
	// plan's own seed drives all fault decisions; the simulation seed never
	// feeds the injector, so the same plan reproduces the same faults under
	// any workload seed.
	Chaos *chaos.Plan
	// EventLimit, when non-zero, aborts the run with sim.ErrEventLimit
	// after that many events. Chaos runs with no explicit limit get a large
	// backstop so a livelocking plan fails instead of spinning forever.
	EventLimit uint64
}

// DefaultParams returns a cluster shaped like the paper's testbed: n nodes
// of 8 cores each over 56 Gbps InfiniBand.
func DefaultParams(nodes int) Params {
	return Params{
		Nodes:        nodes,
		CoresPerNode: 8,
		MemBandwidth: 12e9,
		Fabric:       fabric.DefaultParams(nodes),
		DSM:          dsm.DefaultParams(),
		Seed:         1,
	}
}

// Node models one machine: its cores and memory bus.
type Node struct {
	id    int
	cores *sim.Semaphore
	bus   *sim.Bus
}

// Machine is a simulated cluster running DeX processes.
type Machine struct {
	eng     *sim.Engine
	net     *fabric.Network
	params  Params
	nodes   []*Node
	procs   []*Process
	nextPID int
	inj     *chaos.Injector // nil when no fault plan is active
}

// NewMachine builds a cluster from params.
func NewMachine(params Params) *Machine {
	if params.Nodes < 1 {
		panic("core: need at least one node")
	}
	if params.CoresPerNode < 1 {
		panic("core: need at least one core per node")
	}
	eng := sim.NewEngine(params.Seed)
	if params.Fabric.Nodes != params.Nodes {
		params.Fabric.Nodes = params.Nodes
	}
	// Lanes and lookahead must exist before fabric.New: the network binds its
	// per-node lane views at construction.
	eng.ConfigureLanes(params.Nodes)
	eng.SetLookahead(fabric.LinkLatency)
	// The serialization clamp: a policy that serves page requests at arbitrary
	// nodes out of one shared directory table needs every window in global
	// event order. The observability recorder stamps what it records with the
	// executing lane's clock and index and does not clamp.
	if params.DSM.Protocol.SharesTable() {
		eng.SerializeLanes()
	}
	m := &Machine{
		eng:    eng,
		net:    fabric.New(eng, params.Fabric),
		params: params,
		nodes:  make([]*Node, params.Nodes),
	}
	if rec := params.Obs; rec != nil {
		rec.Bind(eng)
		eng.CountEventKinds()
		m.net.SetRecorder(rec)
		// Scheduler telemetry gauges, sampled with all other gauges by the
		// engine's window sampler — the one periodic observation point that
		// is side-effect-free (it adds no events).
		rec.AddGauge("sched.windows", func() float64 {
			windows, _, _ := eng.WindowCounts()
			return float64(windows)
		})
		rec.AddGauge("sched.serialized_windows", func() float64 {
			_, serialized, _ := eng.WindowCounts()
			return float64(serialized)
		})
		rec.AddGauge("sched.lane_dispatches", func() float64 {
			_, _, dispatches := eng.WindowCounts()
			return float64(dispatches)
		})
		if period := rec.SamplePeriod(); period > 0 {
			eng.AddSampler(period, rec.SampleNowAt)
		}
	}
	if !params.Chaos.Empty() {
		if err := params.Chaos.Validate(params.Nodes); err != nil {
			panic(fmt.Sprintf("core: invalid chaos plan: %v", err))
		}
		m.inj = chaos.NewInjector(params.Chaos, params.Nodes)
		m.net.SetChaos(m.inj)
		for _, c := range params.Chaos.Crashes {
			node := c.Node
			eng.After(c.At.D(), func() { m.crashNode(node) })
		}
	}
	if params.EventLimit > 0 {
		eng.SetEventLimit(params.EventLimit)
	} else if m.inj != nil {
		eng.SetEventLimit(chaosEventBackstop)
	}
	for i := range m.nodes {
		m.nodes[i] = &Node{
			id:    i,
			cores: sim.NewSemaphore(fmt.Sprintf("cores@%d", i), params.CoresPerNode),
			// The bus releases itself with an event on its node's lane.
			bus: sim.NewBus(eng.LaneView(i), fmt.Sprintf("membus@%d", i), params.MemBandwidth),
		}
		m.nodes[i].bus.SetCongestion(busCongestion)
		node := i
		m.net.SetHandler(node, func(src int, msg fabric.Message) { m.route(node, src, msg) })
	}
	return m
}

// Engine exposes the simulation engine (for experiment harnesses).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Network exposes the interconnect (for stats).
func (m *Machine) Network() *fabric.Network { return m.net }

// Params returns the machine configuration.
func (m *Machine) Params() Params { return m.params }

// Nodes returns the number of nodes.
func (m *Machine) Nodes() int { return m.params.Nodes }

// dead reports whether node n is confirmed dead (without an injector none is).
func (m *Machine) dead(n int) bool { return m.inj != nil && m.inj.NodeDead(n) }

// view returns the lane view bound to node.
func (m *Machine) view(node int) *sim.Engine { return m.eng.LaneView(node) }

// commitGlobal runs fn in serialized (global-lane) context, where it may
// touch process-wide state and any lane's tasks. From the global lane it
// runs immediately; from a node lane it is scheduled one lookahead later —
// the earliest instant a lane is allowed to affect global state.
func (m *Machine) commitGlobal(t *sim.Task, fn func()) {
	v := t.Engine()
	if v.Lane() == sim.GlobalLane {
		fn()
		return
	}
	v.AfterOn(sim.GlobalLane, m.eng.Lookahead(), fn)
}

// commitGlobalWait is commitGlobal blocking the task until fn has run.
func (m *Machine) commitGlobalWait(t *sim.Task, fn func()) {
	v := t.Engine()
	if v.Lane() == sim.GlobalLane {
		fn()
		return
	}
	done := false
	v.AfterOn(sim.GlobalLane, m.eng.Lookahead(), func() {
		fn()
		done = true
		t.Unpark()
	})
	for !done {
		t.Park("global commit")
	}
}

// envelope is the core-layer message: a closure delivered at the
// destination node in event context. Migration requests, delegated work,
// and worker commands all travel as envelopes over the same fabric as the
// DSM protocol.
type envelope struct {
	bytes   int
	deliver func()
}

func (e *envelope) Size() int { return e.bytes }

// DeliverGlobal marks envelopes for the fabric's control queue pair: their
// closures run against process-wide structures (worker mailboxes, delegation
// state, migration bookkeeping), so they execute on the simulator's global
// lane, where every node lane is quiescent.
func (e *envelope) DeliverGlobal() {}

// route dispatches an incoming fabric message at a node.
func (m *Machine) route(node, src int, msg fabric.Message) {
	if env, ok := msg.(*envelope); ok {
		env.deliver()
		return
	}
	for _, p := range m.procs {
		if p.mgr.HandleMessage(node, src, msg) {
			return
		}
	}
	panic(fmt.Sprintf("core: unroutable message %T at node %d from %d", msg, node, src))
}

// Run executes the simulation to completion: every spawned process runs
// until all of its threads finish. It returns the first application error,
// wrapped together with the simulation's if the engine stopped too (a failed
// thread can leave the rest livelocked until the event limit), else the
// simulation error.
func (m *Machine) Run() error {
	err := m.eng.Run()
	for _, p := range m.procs {
		if p.firstErr != nil {
			if err != nil {
				return fmt.Errorf("%w; then %w", p.firstErr, err)
			}
			return p.firstErr
		}
	}
	return err
}

// Report summarizes one process run.
type Report struct {
	// Elapsed is the virtual time from process start to the completion of
	// its last thread.
	Elapsed time.Duration
	// DSM and Net are protocol and interconnect counters.
	DSM dsm.Stats
	Net fabric.Stats
	// TLB aggregates the per-node software-TLB counters (hits, misses,
	// shootdown flushes) of the process's page tables; TLBPerNode is the
	// same breakdown before aggregation, indexed by node.
	TLB        mem.TLBStats
	TLBPerNode []mem.TLBStats
	// FramesRecycled / FrameAllocs count page frames served from the
	// process free list versus freshly allocated; FramesShared counts the
	// references to a frame taken instead of a copy of it.
	FramesRecycled uint64
	FrameAllocs    uint64
	FramesShared   uint64
	// Migrations counts completed thread migrations (both directions).
	Migrations int
	// MigrationRecords holds per-migration phase timings (Figure 3).
	MigrationRecords []MigrationRecord
	// VMAQueries counts on-demand VMA synchronizations (§III-D).
	VMAQueries uint64
	// Delegations counts delegated work requests handled at the origin.
	Delegations uint64
	// Threads is the total number of threads the process created.
	Threads int
	// ResidentPages is, per node, how many page frames the process holds
	// there (replicas included) at the time the report is taken — the
	// §IV-B memory-footprint dimension of padding decisions.
	ResidentPages []int
	// Regions is the process's address space at the time the report is
	// taken: its mappings, sorted by address, with their program-object
	// labels — what a page-fault profile names its addresses by.
	Regions []mem.VMA
	// Chaos summarizes fault injection and recovery; nil when no fault
	// plan was active.
	Chaos *ChaosReport
	// Sched is the windowed scheduler's telemetry: how the run decomposed
	// into lookahead windows, how many serialized on global-lane work, how
	// the node lanes shared the others, and how many sleeps were taken in
	// place.
	Sched sim.SchedStats
}

// TotalResidentPages sums frames across all nodes.
func (r Report) TotalResidentPages() int {
	total := 0
	for _, n := range r.ResidentPages {
		total += n
	}
	return total
}

// MigrationRecord is the phase breakdown of one migration.
type MigrationRecord struct {
	ThreadID int
	From, To int
	Backward bool
	First    bool // first migration of the process to this node
	// Phase durations (forward: origin, transfer, worker, fork, ctx,
	// sched; backward: collect, transfer, update).
	Origin   time.Duration
	Transfer time.Duration
	Worker   time.Duration
	Fork     time.Duration
	Ctx      time.Duration
	Sched    time.Duration
	Total    time.Duration
}
