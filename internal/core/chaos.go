package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"dex/internal/chaos"
	"dex/internal/sim"
)

// This file is the execution layer's side of the fault-injection subsystem
// (internal/chaos): crash execution, the origin-side lease protocol that
// detects crashed nodes, and the recovery bookkeeping that keeps every
// surviving Join answerable.
//
// The division of labor with the injector is deliberate: the injector is
// ground truth for which nodes are dead (the fabric consults it to drop
// their traffic), while the lease protocol is how the origin *finds out* —
// a lease can expire under a partition or delay storm without the node
// being gone, so a suspected node is declared dead only once the injector
// confirms the crash. Suspicions that do not confirm are counted in
// LeaseSuspects and the lease re-arms.

// leaseMsgBytes is the wire size of one lease ping or pong envelope.
const leaseMsgBytes = 40

// chaosEventBackstop caps runaway chaos runs (e.g. a plan that keeps a
// retransmission loop live forever) when the caller sets no explicit event
// limit. It is far above any healthy run's event count, so hitting it means
// the plan livelocked the cluster and the run fails with ErrEventLimit
// instead of spinning.
const chaosEventBackstop = 50_000_000

// ChaosReport summarizes fault injection and recovery for one process run.
type ChaosReport struct {
	// Injected counts the faults the injector actually delivered.
	Injected chaos.Stats
	// NodesLost is how many nodes this process saw declared dead.
	NodesLost int
	// ThreadsLost is how many of the process's threads died with a node;
	// each surfaced its crash error to Join instead of hanging.
	ThreadsLost int
	// LeaseSuspects counts lease expiries that did NOT confirm as crashes
	// (partitions or delay storms starving heartbeats).
	LeaseSuspects uint64
	// ThreadsRestarted is how many lost threads were re-spawned at the
	// origin from their latest checkpoint instead of being declared dead.
	ThreadsRestarted int
	// PagesRestored is how many pages whose only copy died with a node were
	// repopulated from a thread checkpoint instead of zero-filling.
	PagesRestored int
}

// crashNode executes a scheduled whole-node crash: from this instant the
// fabric drops all of the node's traffic and every task executing there is
// killed. Origin-side detection and recovery happen separately, through the
// lease protocol.
func (m *Machine) crashNode(node int) {
	m.inj.MarkDead(node)
	for _, p := range m.procs {
		p.killNodeTasks(node)
	}
	if rec := m.params.Obs; rec != nil {
		rec.SpanAt("chaos", "node.crash", node, -1, m.eng.Now(), 0)
	}
}

// killNodeTasks kills every task of this process that executes on node:
// threads currently located there and the remote worker. The tasks unwind
// without error — the process-level bookkeeping (thread death, join wakeup,
// ownership reclaim) is done by declareNodeDead once the origin detects the
// crash.
func (p *Process) killNodeTasks(node int) {
	for _, th := range p.threads {
		if !th.done && th.node == node {
			th.task.Kill()
		}
	}
	if w := p.nodes[node].worker; w != nil {
		w.task.Kill()
	}
}

// startLeaseMonitor schedules the origin-side heartbeat tick, an event-based
// self-rescheduling timer like the gauge sampler. Each tick checks the lease
// of every active remote worker and pings the live ones; a pong refreshes
// the lease. The tick stops once the process has no live threads. Pings and
// pongs are built once: never expendable, one envelope rides every flight.
func (p *Process) startLeaseMonitor() {
	for node := range p.nodes {
		if node == p.origin {
			continue
		}
		p.nodes[node].pong = &envelope{bytes: leaseMsgBytes, deliver: func() {
			p.nodes[node].lastSeen = p.m.eng.Now()
		}}
		p.nodes[node].ping = &envelope{bytes: leaseMsgBytes, deliver: func() {
			p.startLeaseSend("lease-pong", node, 0)
		}}
	}
	period := p.m.params.Chaos.LeasePeriod()
	var tick func()
	tick = func() {
		if p.liveCount <= 0 {
			return
		}
		p.leaseTick()
		p.m.eng.After(period, tick)
	}
	p.m.eng.After(period, tick)
}

// leaseNodes returns the set of live nodes the origin's lease protocol
// monitors: those that hold state the process depends on. A node with a
// remote worker hosts its threads; a node that hosts a directory table does
// so regardless of thread placement — its crash must be detected and
// declared, so that its directory slice is rebuilt and anchor lookups fail
// over, even if no thread ever migrated there.
func (p *Process) leaseNodes() (nodes uint64) {
	hosts := p.mgr.DirectoryHosts()
	for n := range p.nodes {
		ns := &p.nodes[n]
		if n != p.origin && !ns.dead && (ns.worker != nil || slices.Contains(hosts, n)) {
			nodes |= 1 << uint(n)
		}
	}
	return nodes
}

// leaseTick runs one round of the lease protocol in event context: it checks
// the lease of every monitored node and pings those it does not declare dead.
func (p *Process) leaseTick() {
	now := p.m.eng.Now()
	timeout := p.m.params.Chaos.LeaseTimeout()
	var targets uint64
	for nodes := p.leaseNodes(); nodes != 0; nodes &= nodes - 1 {
		node := bits.TrailingZeros64(nodes)
		ns := &p.nodes[node]
		switch {
		case ns.lastSeen == 0:
			// First sight of this node: arm its lease.
			ns.lastSeen = now
		case now-ns.lastSeen <= timeout:
			// The lease holds.
		case p.m.dead(node):
			p.declareNodeDead(node)
			continue
		default:
			// Expired but the node is not actually gone: a partition or delay
			// storm is starving heartbeats. Re-arm and keep waiting.
			p.leaseSuspects++
			ns.lastSeen = now
			if rec := p.m.params.Obs; rec != nil {
				rec.SpanAt("chaos", "lease.suspect", node, -1, now, 0)
			}
		}
		targets |= 1 << uint(node)
	}
	if targets == 0 {
		return
	}
	p.startLeaseSend("lease-ping", p.origin, targets)
}

// leaseSend is the record of a lease task: the origin's ping of the nodes in
// targets, or, with targets 0, node from's pong to the origin. It is recycled
// through the process's free list once its task is over.
type leaseSend struct {
	p       *Process
	from    int
	targets uint64
	run     sim.Task
}

// startLeaseSend starts a lease task from a free record, as Spawn would.
func (p *Process) startLeaseSend(name string, from int, targets uint64) {
	var s *leaseSend
	if n := len(p.leaseFree); n > 0 {
		s, p.leaseFree = p.leaseFree[n-1], p.leaseFree[:n-1]
	} else {
		s = &leaseSend{p: p}
	}
	s.from, s.targets = from, targets
	p.m.eng.Start(&s.run, name, s)
}

func (s *leaseSend) RunTask(t *sim.Task) {
	p := s.p
	if s.targets == 0 {
		p.m.net.Send(t, s.from, p.origin, p.nodes[s.from].pong)
		return
	}
	for set := s.targets; set != 0; set &= set - 1 {
		node := bits.TrailingZeros64(set)
		p.m.net.Send(t, p.origin, node, p.nodes[node].ping)
	}
}

func (s *leaseSend) Finished() {
	s.run = sim.Task{}
	s.p.leaseFree = append(s.p.leaseFree, s)
}

// declareNodeDead is the origin's commit point for a node crash: the worker
// is retired and page ownership is reclaimed to the origin. Threads located
// at the node are then either re-spawned at the origin from their latest
// checkpoint (when every one of them is restartable) or retired with an
// attributable error so their joiners resume instead of hanging; a lost main
// thread, which nothing joins, fails the process. Idempotent.
func (p *Process) declareNodeDead(node int) {
	if p.nodes[node].dead {
		return
	}
	p.nodes[node].dead = true
	p.nodesLost++
	lost, err := p.mgr.ReclaimDeadNode(node)
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	var dead []*Thread
	restartAll := true
	for _, th := range p.threads {
		if !th.done && th.node == node {
			dead = append(dead, th)
			restartAll = restartAll && th.restartable != nil
		}
	}
	switch {
	case len(dead) == 0:
		// The dead node hosted none of this process's threads — it was
		// monitored purely as a directory shard. The reclaim above rebuilt
		// its slice; no thread needs restarting and no synchronization
		// involved the node, so futexes stay healthy.
	case restartAll:
		// Every lost thread can come back from a checkpoint: repopulate the
		// pages whose only copy died with the node from the snapshots, then
		// re-spawn the threads at the origin. No futex poisoning — the
		// restarted bodies replay from their last quiescent point and
		// re-deliver any wakeups the survivors are waiting on.
		for _, th := range dead {
			for _, vpn := range lost {
				if data, ok := th.ckpt.pages.Page(vpn); ok {
					if p.mgr.RestorePage(vpn, data) {
						p.pagesRestored++
					}
				}
			}
		}
		for _, th := range dead {
			if th.futexWaiter != nil {
				// The thread died while its delegated futex wait was queued
				// at the origin: unwind the origin-side waiter so the table
				// holds no dead entries and the delegated task can finish.
				th.futexWaiter.Expire()
				th.futexWaiter = nil
			}
			p.restartThread(th)
			p.threadsRestarted++
		}
	default:
		// Node death poisons futex-based synchronization (robust-futex
		// style): a barrier or lock involving the dead node's threads can
		// never be satisfied again, and the origin cannot tell which waits
		// those are. All in-flight waits, the lost threads' included, are
		// interrupted and later waits fail fast; survivors surface the error
		// instead of hanging.
		if p.futexPoisoned == nil {
			p.futexPoisoned = fmt.Errorf("core: futex wait interrupted: node %d crashed", node)
		}
		p.fut.ExpireAll()
		for _, th := range dead {
			th.crashErr = fmt.Errorf("core: thread %d lost: node %d crashed", th.id, node)
			p.threadsLost++
			var err error
			if th == p.threads[0] {
				err = th.crashErr
			}
			p.retire(th, err)
		}
	}
	if rec := p.m.params.Obs; rec != nil {
		rec.SpanAt("chaos", "node.dead", node, -1, p.m.eng.Now(), 0)
	}
}

// restartThread re-launches a lost restartable thread at the origin from its
// last checkpoint. The thread keeps its identity — id, joiners, futex
// address space — so to the rest of the process it simply went quiet for a
// lease interval and resumed: Join keeps waiting on it rather than
// surfacing a crash error.
func (p *Process) restartThread(th *Thread) {
	th.node = p.origin
	th.restarts++
	th.pending = 0
	th.blob = append([]byte(nil), th.ckpt.data...)
	p.start(th, fmt.Sprintf("pid%d/t%d#r%d", p.pid, th.id, th.restarts))
	if rec := p.m.params.Obs; rec != nil {
		rec.SpanAt("chaos", "thread.restart", p.origin, th.id, p.m.eng.Now(), 0)
	}
}

// recheck is how often a wait for a remote node re-checks injector ground
// truth: a node can die between a send and its answer. Without fault
// injection it is 0 — a plain park, since envelopes are never dropped.
func (m *Machine) recheck() time.Duration {
	if m.inj == nil {
		return 0
	}
	return m.params.Chaos.LeasePeriod()
}

// awaitAcks blocks t until pending, a mask of nodes, drains, dropping the
// nodes the injector reports dead at each recheck.
func (p *Process) awaitAcks(t *sim.Task, reason string, pending *uint64) {
	period := p.m.recheck()
	for *pending != 0 {
		if t.ParkTimeout(reason, period) {
			continue
		}
		for s := *pending; s != 0; s &= s - 1 {
			if node := bits.TrailingZeros64(s); p.m.dead(node) {
				*pending &^= 1 << node
			}
		}
	}
}
