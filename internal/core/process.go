package core

import (
	"errors"
	"fmt"
	"time"

	"dex/internal/dsm"
	"dex/internal/futex"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Errors returned by process and thread operations.
var (
	ErrSegfault     = errors.New("core: segmentation fault")
	ErrProtection   = errors.New("core: protection violation")
	ErrBadNode      = errors.New("core: no such node")
	ErrNotAtOrigin  = errors.New("core: operation only valid at the origin")
	ErrProcessEnded = errors.New("core: process has ended")
)

// Process is a DeX process: created at its origin node, expandable to every
// node in the cluster by migrating threads.
type Process struct {
	m      *Machine
	pid    int
	origin int

	as    *mem.AddressSpace
	mgr   *dsm.Manager
	fut   *futex.Table
	files *fileTable

	threads    []*Thread
	liveCount  int
	firstErr   error
	startedAt  time.Duration
	finishedAt time.Duration

	nodes []nodeState // indexed by node

	migrations       int
	migrationRecords []MigrationRecord
	vmaQueries       uint64
	delegations      uint64

	// Fault-injection state (zero when no plan is active).
	nodesLost        int
	threadsLost      int
	threadsRestarted int
	pagesRestored    int
	leaseSuspects    uint64
	futexPoisoned    error // set on first node death; fails futex waits fast
	// leaseFree holds the lease tasks' records that are done, for the next
	// ping or pong; one is out per ping and per pong still sending.
	leaseFree []*leaseSend
}

// nodeState is what a process keeps about one node. The origin's record
// stays zero: its VMA view is the address space itself.
type nodeState struct {
	// worker is nil until the first migration to the node.
	worker *remoteWorker
	// vmas is the node's lazily synchronized VMA cache (§III-D).
	vmas mem.VMASet
	// lastSeen is the node's last lease refresh, 0 until the lease monitor
	// first sees it (a tick is never at time 0).
	lastSeen time.Duration
	// ping and pong are the lease monitor's ping to the node and the node's
	// answer (startLeaseMonitor).
	ping, pong *envelope
	// dead: this process has declared the node dead; its worker is never
	// targeted again.
	dead bool
}

// remoteWorker is the per-(process, node) worker thread of §III-A: it forks
// remote threads and applies node-wide operations (VMA updates, exit).
type remoteWorker struct {
	node int
	mb   *sim.Mailbox[workerMsg]
	task *sim.Task
}

type workerMsg struct {
	// fork resumes a migrating thread after charging fork costs.
	fork *migration
	// apply runs a node-wide operation in worker context and then calls
	// done (used for VMA synchronization and shutdown).
	apply func(t *sim.Task)
	done  func()
	stop  bool
}

// NewProcess creates a process whose origin is the given node. The main
// thread is spawned at the origin running main; the process ends when all
// of its threads have finished.
func (m *Machine) NewProcess(origin int, main func(*Thread) error) *Process {
	if origin < 0 || origin >= m.params.Nodes {
		panic(fmt.Sprintf("core: origin node %d out of range", origin))
	}
	pid := m.nextPID
	m.nextPID++
	p := &Process{
		m:      m,
		pid:    pid,
		origin: origin,
		as:     mem.NewAddressSpace(),
		fut:    futex.NewTable(),
		files:  newFileTable(),
		nodes:  make([]nodeState, m.params.Nodes),
	}
	p.mgr = dsm.New(m.eng, m.net, m.params.DSM, pid, origin, m.params.Nodes, m.params.Obs)
	m.procs = append(m.procs, p)
	p.startedAt = m.eng.Now()
	if m.params.Obs != nil {
		p.registerGauges(m.params.Obs)
	}
	if m.inj != nil {
		for _, c := range m.params.Chaos.Crashes {
			if c.Node == origin {
				panic(fmt.Sprintf("core: chaos plan crashes node %d, the origin of pid %d; origin crashes are not survivable", origin, pid))
			}
		}
		p.startLeaseMonitor()
	}
	p.newThread(main)
	return p
}

// registerGauges wires the process's instantaneous metrics into the
// recorder's periodic time series: per-node resident pages and TLB hit
// rate, plus the process-wide in-flight fault count. The engine's window
// sampler (registered in NewMachine) reads them between scheduler windows,
// with every lane quiescent, so the closures may touch any state.
func (p *Process) registerGauges(rec *obs.Recorder) {
	for n := 0; n < p.m.params.Nodes; n++ {
		rec.AddNodeGauge("resident_pages", n, func() float64 {
			return float64(p.mgr.PageTable(n).Present())
		})
		rec.AddNodeGauge("tlb_hit_rate", n, func() float64 {
			return p.mgr.TLBStatsNode(n).HitRate()
		})
	}
	rec.AddGauge("inflight_faults", func() float64 {
		return float64(p.mgr.InFlightFaults())
	})
}

// Origin returns the origin node.
func (p *Process) Origin() int { return p.origin }

// Err returns the first error returned by any thread.
func (p *Process) Err() error { return p.firstErr }

// Report summarizes the run. Call it after Machine.Run returns.
func (p *Process) Report() Report {
	resident := make([]int, p.m.params.Nodes)
	tlbPerNode := make([]mem.TLBStats, p.m.params.Nodes)
	for n := range resident {
		resident[n] = p.mgr.PageTable(n).Present()
		tlbPerNode[n] = p.mgr.TLBStatsNode(n)
	}
	recycled, allocs, shared := p.mgr.FrameStats()
	var cr *ChaosReport
	if p.m.inj != nil {
		cr = &ChaosReport{
			Injected:         p.m.inj.Stats(),
			NodesLost:        p.nodesLost,
			ThreadsLost:      p.threadsLost,
			LeaseSuspects:    p.leaseSuspects,
			ThreadsRestarted: p.threadsRestarted,
			PagesRestored:    p.pagesRestored,
		}
	}
	return Report{
		Chaos:            cr,
		Sched:            p.m.eng.SchedStats(),
		ResidentPages:    resident,
		Regions:          p.as.VMAs.All(),
		Elapsed:          p.finishedAt - p.startedAt,
		DSM:              p.mgr.Stats(),
		Net:              p.m.net.Stats(),
		TLB:              p.mgr.TLBStats(),
		TLBPerNode:       tlbPerNode,
		FramesRecycled:   recycled,
		FrameAllocs:      allocs,
		FramesShared:     shared,
		Migrations:       p.migrations,
		MigrationRecords: p.migrationRecords,
		VMAQueries:       p.vmaQueries,
		Delegations:      p.delegations,
		Threads:          len(p.threads),
	}
}

// newThread creates a thread at the origin running fn.
func (p *Process) newThread(fn func(*Thread) error) *Thread {
	th := &Thread{proc: p, id: len(p.threads), node: p.origin, body: fn}
	p.threads = append(p.threads, th)
	p.liveCount++
	p.start(th, fmt.Sprintf("pid%d/t%d", p.pid, th.id))
	return th
}

// start launches th's body in a new task at th.node under name: a new
// thread's first run and a restart's alike.
func (p *Process) start(th *Thread, name string) {
	th.task = new(sim.Task)
	p.m.view(th.node).Start(th.task, name, (*threadBody)(th))
	th.task.SetDetail(fmt.Sprintf("node %d", th.node))
}

// threadBody is a Thread as the body of its task, so that a start allocates
// no closure.
type threadBody Thread

// RunTask runs the thread's body — a restartable one from the blob it was
// (re)started with — and commits its exit.
func (b *threadBody) RunTask(t *sim.Task) {
	th := (*Thread)(b)
	var err error
	if th.restartable != nil {
		err = th.restartable(th, th.blob)
	} else {
		err = th.body(th)
	}
	th.proc.threadDone(t, th, err)
}

// threadDone commits a thread's exit. The error (if any), the done flag,
// joiner wakeups, and the live count are process-wide state shared with
// threads on every node, so the bookkeeping runs in serialized global-lane
// context — a joiner parked on another lane can then be woken safely.
func (p *Process) threadDone(t *sim.Task, th *Thread, err error) {
	if err != nil {
		err = fmt.Errorf("thread %d: %w", th.id, err)
	}
	p.m.commitGlobalWait(t, func() {
		if th.done {
			// The thread's node was declared dead between its return and this
			// commit; declareNodeDead already accounted for it.
			return
		}
		p.retire(th, err)
	})
}

// retire takes th out of the process, in serialized context, whether it
// exited or was lost with its node: err, if the process has none yet, becomes
// the process error; th's joiners wake in the order they joined; and when the
// last thread leaves, worker teardown is handed to a fresh origin-lane task
// (the teardown sends from the origin, so it must execute there).
func (p *Process) retire(th *Thread, err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	th.done = true
	for _, j := range th.joiners {
		j.Unpark()
	}
	th.joiners = nil
	p.liveCount--
	if p.liveCount > 0 {
		return
	}
	p.finishedAt = p.m.eng.Now()
	p.m.view(p.origin).Spawn("process-exit", func(st *sim.Task) {
		p.shutdownWorkers(st)
	})
}

// shutdownWorkers broadcasts process exit to every remote worker (§III-A:
// original process exit is a node-wide operation delivered to the remote
// workers) and waits for them to stop.
func (p *Process) shutdownWorkers(t *sim.Task) {
	p.askWorkers(t, "process exit: draining workers", 48, func(w *remoteWorker, acked func()) {
		w.mb.Send(workerMsg{stop: true, done: acked})
	})
}

// askWorkers sends every live remote worker, in node order, a message of the
// given size whose delivery runs deliver, and blocks t until each has called
// acked (or died).
func (p *Process) askWorkers(t *sim.Task, reason string, bytes int, deliver func(w *remoteWorker, acked func())) {
	var pending uint64 // mask of nodes still to acknowledge
	for n := range p.nodes {
		w := p.nodes[n].worker
		if w == nil || p.nodes[n].dead {
			continue
		}
		pending |= 1 << n
		acked := func() { pending &^= 1 << n; t.Unpark() }
		p.m.net.Send(t, p.origin, n, &envelope{bytes: bytes, deliver: func() { deliver(w, acked) }})
	}
	p.awaitAcks(t, reason, &pending)
}

// worker returns the remote worker for node, creating and starting it on
// first use (the expensive first-migration path of §III-A).
func (p *Process) worker(node int) (*remoteWorker, bool) {
	if w := p.nodes[node].worker; w != nil {
		return w, false
	}
	w := &remoteWorker{
		node: node,
		mb:   sim.NewMailbox[workerMsg](fmt.Sprintf("worker pid%d@%d", p.pid, node)),
	}
	p.nodes[node].worker = w
	w.task = p.m.view(node).Spawn(fmt.Sprintf("worker pid%d@%d", p.pid, node), func(t *sim.Task) {
		// Per-process setup: address space bootstrap, messaging state,
		// process-level bookkeeping (the 620 µs of Figure 3).
		t.Sleep(remoteWorkerSetup)
		for {
			msg := w.mb.Recv(t)
			switch {
			case msg.stop:
				msg.done()
				return
			case msg.fork != nil:
				p.serveFork(t, msg.fork)
			default:
				msg.apply(t)
				msg.done()
			}
		}
	})
	return w, true
}

// vmaSetFor returns the VMA view at a node: authoritative at the origin, a
// lazily synchronized cache elsewhere.
func (p *Process) vmaSetFor(node int) *mem.VMASet {
	if node == p.origin {
		return &p.as.VMAs
	}
	if p.nodes[node].worker == nil {
		// A thread can only be at a node whose worker exists.
		panic(fmt.Sprintf("core: no VMA cache for pid %d at node %d", p.pid, node))
	}
	return &p.nodes[node].vmas
}

// result is what a delegated operation that can fail returns.
type result[T any] struct {
	v   T
	err error
}

// delegate ships op to the origin and runs it there in handler-thread
// context, blocking th until the result returns (§III-A work delegation).
// At the origin the operation runs inline.
func delegate[T any](p *Process, th *Thread, name string, op func(t *sim.Task) T) T {
	if th.node == p.origin {
		return op(th.task)
	}
	node := th.node
	var (
		res  T
		done bool
	)
	p.m.net.Send(th.task, node, p.origin, &envelope{bytes: delegateSize, deliver: func() {
		// The handler-thread context runs at the origin, on the origin's
		// lane: delegated operations touch origin-owned state (address
		// space, futex table, file table, delegation counter).
		p.m.view(p.origin).Spawn("delegate "+name, func(t *sim.Task) {
			p.delegations++
			t.Sleep(delegateDispatch)
			v := op(t)
			p.m.net.Send(t, p.origin, node, &envelope{bytes: delegateSize, deliver: func() {
				res, done = v, true
				th.task.Unpark()
			}})
		})
	}})
	for !done {
		th.task.Park("delegation " + name)
	}
	return res
}

// broadcastVMA applies a VMA update on every active remote worker and waits
// for completion. apply runs in each worker's context. t must be running at
// the origin.
func (p *Process) broadcastVMA(t *sim.Task, apply func(node int, t *sim.Task)) {
	p.askWorkers(t, "vma broadcast", 96, func(w *remoteWorker, acked func()) {
		w.mb.Send(workerMsg{
			apply: func(wt *sim.Task) { apply(w.node, wt) },
			done: func() {
				// Ack travels back to the origin. The ack task is spawned
				// from worker context, so it lives on the worker's lane.
				p.m.view(w.node).Spawn("vma-ack", func(at *sim.Task) {
					p.m.net.Send(at, w.node, p.origin, &envelope{bytes: 48, deliver: acked})
				})
			},
		})
	})
}

// mmapAt implements mmap in origin context.
func (p *Process) mmapAt(t *sim.Task, size uint64, prot mem.Prot, label string) (mem.Addr, error) {
	addr, err := p.as.Mmap(size, prot, label)
	if err != nil {
		return 0, err
	}
	if p.m.params.EagerVMASync {
		v, _ := p.as.VMAs.Find(addr)
		p.broadcastVMA(t, func(node int, wt *sim.Task) {
			if err := p.nodes[node].vmas.Upsert(v); err != nil {
				panic(fmt.Sprintf("core: eager VMA sync failed: %v", err))
			}
		})
	}
	return addr, nil
}

// munmapAt implements munmap in origin context: the shrink is broadcast to
// every worker (§III-D), remote PTEs in the range are invalidated, and the
// ownership directory entries are dropped.
func (p *Process) munmapAt(t *sim.Task, addr mem.Addr, size uint64) error {
	if err := p.as.Munmap(addr, size); err != nil {
		return err
	}
	length := mem.PageAlignUp(size)
	lo := addr.VPN()
	hi := (addr + mem.Addr(length) - 1).VPN()
	p.broadcastVMA(t, func(node int, wt *sim.Task) {
		if err := p.nodes[node].vmas.Carve(addr, length); err != nil {
			panic(fmt.Sprintf("core: VMA shrink broadcast failed: %v", err))
		}
		p.mgr.ReclaimRange(node, lo, hi)
	})
	return p.mgr.DropDirectoryRange(t, lo, hi)
}

// mprotectAt implements mprotect in origin context. Downgrades (losing
// write permission) are broadcast eagerly; permissive changes propagate
// through on-demand synchronization.
func (p *Process) mprotectAt(t *sim.Task, addr mem.Addr, size uint64, prot mem.Prot) error {
	length := mem.PageAlignUp(size)
	old, ok := p.as.VMAs.Find(addr)
	if err := p.as.Mprotect(addr, size, prot); err != nil {
		return err
	}
	downgrade := ok && old.Prot.CanWrite() && !prot.CanWrite()
	if downgrade || p.m.params.EagerVMASync {
		v, _ := p.as.VMAs.Find(addr)
		p.broadcastVMA(t, func(node int, wt *sim.Task) {
			if err := p.nodes[node].vmas.Upsert(v); err != nil {
				panic(fmt.Sprintf("core: VMA downgrade broadcast failed: %v", err))
			}
			if downgrade {
				// Drop write access so stores trap again.
				lo, hi := addr.VPN(), (addr + mem.Addr(length) - 1).VPN()
				for vpn := lo; vpn <= hi; vpn++ {
					p.mgr.PageTable(node).Downgrade(vpn)
				}
			}
		})
	}
	return nil
}

// queryVMA performs the on-demand VMA synchronization of §III-D: a remote
// thread that sees a missing VMA asks the origin whether the access is
// legitimate.
func (p *Process) queryVMA(th *Thread, addr mem.Addr) (mem.VMA, bool) {
	type found struct {
		v  mem.VMA
		ok bool
	}
	r := delegate(p, th, "vma-query", func(t *sim.Task) (r found) {
		p.vmaQueries++ // origin-side counter, bumped in origin context
		r.v, r.ok = p.as.VMAs.Find(addr)
		return r
	})
	if r.ok && th.node != p.origin {
		if err := p.nodes[th.node].vmas.Upsert(r.v); err != nil {
			panic(fmt.Sprintf("core: VMA cache update failed: %v", err))
		}
	}
	return r.v, r.ok
}
