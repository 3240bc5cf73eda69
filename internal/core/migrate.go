package core

import (
	"fmt"
	"time"

	"dex/internal/obs"
	"dex/internal/sim"
)

// The execution-context migration costs of §III-A, calibrated against
// Table II and Figure 3 of the paper: ~812 µs first forward, ~237 µs warm
// forward, ~25 µs backward.
const (
	// originFirst/originWarm is the origin-side cost of collecting and
	// shipping the execution context: higher on the first migration of the
	// process to a node (pairing setup).
	originFirst time.Duration = 12100 * time.Nanosecond
	originWarm  time.Duration = 6600 * time.Nanosecond
	// contextSize is the wire size of the transferred execution context.
	contextSize int = 1024
	// remoteWorkerSetup is the one-time, per-(process,node) cost of creating
	// the remote worker and the process-level data structures.
	remoteWorkerSetup time.Duration = 620 * time.Microsecond
	// threadFork is the cost of forking a remote thread from the worker.
	threadFork time.Duration = 137 * time.Microsecond
	// contextSetup is the cost of installing the received context.
	contextSetup time.Duration = 40 * time.Microsecond
	// scheduleCost is the run-queue insertion cost, paid on warm forks
	// (during the first migration it overlaps worker initialization).
	scheduleCost time.Duration = 50 * time.Microsecond
	// backwardCollect/backwardUpdate are the remote- and origin-side costs
	// of a backward migration.
	backwardCollect time.Duration = 10 * time.Microsecond
	backwardUpdate  time.Duration = 11 * time.Microsecond
)

// migration carries the state of one in-flight forward migration between
// the migrating thread, the fabric, and the destination worker.
type migration struct {
	th     *Thread
	to     int
	record MigrationRecord
	// phase timestamps
	sentAt    time.Duration
	arrivedAt time.Duration
	resumed   bool
}

// Migrate relocates the thread to node, as the paper's migration system
// call does. Migrating to the current node is a no-op; migrating to the
// origin performs the (cheap) backward migration; anything else is a
// forward migration through the destination's remote worker, creating the
// worker first if this is the process's first visit to that node.
func (th *Thread) Migrate(node int) error {
	p := th.proc
	if node < 0 || node >= p.m.params.Nodes {
		return fmt.Errorf("%w: %d", ErrBadNode, node)
	}
	if node == th.node {
		return nil
	}
	if node == p.origin {
		th.migrateBackward()
		return nil
	}
	return th.migrateForward(node)
}

// MigrateBack returns the thread to its origin.
func (th *Thread) MigrateBack() error { return th.Migrate(th.proc.origin) }

// migrateForward implements §III-A: collect the execution context, ship it
// to the remote, reconstruct the thread there (via the remote worker), and
// leave the original thread behind to serve delegated work. In the
// simulation the "original thread" is implicit: delegated operations run in
// spawned origin-side contexts with the same costs.
func (th *Thread) migrateForward(to int) error {
	p := th.proc
	if p.m.dead(to) {
		return fmt.Errorf("core: migration of thread %d to node %d failed: node is dead", th.id, to)
	}
	mg := &migration{th: th, to: to}
	start := th.task.Now()

	// Origin-side: collect pt_regs/mm state and pair the threads. The
	// first migration of the process to a node also sets up the pairing
	// state, which is more expensive (Table II).
	originCost := originWarm
	if p.nodes[to].worker == nil {
		originCost = originFirst
	}
	mg.record = MigrationRecord{
		ThreadID: th.id,
		From:     th.node,
		To:       to,
		Origin:   originCost,
	}
	th.task.Sleep(originCost)

	// Ship the execution context. The worker is created on first use; its
	// setup cost is charged inside the worker task itself, so a second
	// migration arriving meanwhile queues behind worker readiness.
	mg.sentAt = th.task.Now()
	p.m.net.Send(th.task, th.node, to, &envelope{bytes: contextSize, deliver: func() {
		mg.arrivedAt = p.m.eng.Now()
		w, created := p.worker(to)
		mg.record.First = created
		w.mb.Send(workerMsg{fork: mg})
	}})
	// Under fault injection the destination can die while the context (or
	// its fork) is in flight; the re-check makes the thread return an error
	// instead of parking forever.
	reason, period := fmt.Sprintf("migrating to node %d", to), p.m.recheck()
	for !mg.resumed {
		if th.task.ParkTimeout(reason, period) || mg.resumed {
			continue
		}
		if p.m.dead(to) {
			return fmt.Errorf("core: migration of thread %d to node %d failed: node crashed in flight", th.id, to)
		}
	}
	if p.m.dead(to) {
		// The fork completed but the node died before the thread resumed;
		// stay at the source. The resume commit already rebound the task to
		// the destination lane, so move it back in serialized context.
		from := mg.record.From
		p.m.commitGlobalWait(th.task, func() { th.task.SetLane(from) })
		return fmt.Errorf("core: migration of thread %d to node %d failed: node crashed on arrival", th.id, to)
	}
	// Execution continues at the destination (the resume commit rebound the
	// task to the destination's lane before waking it).
	th.node = to
	th.task.SetDetail(fmt.Sprintf("node %d", to))
	mg.record.Total = th.task.Now() - start
	p.commitMigration(th.task, mg.record)

	if rec := p.m.params.Obs; rec != nil {
		from := mg.record.From
		end := start + mg.record.Total
		first := "false"
		if mg.record.First {
			first = "true"
		}
		rec.SpanAt("core", "migrate.forward", from, th.id, start, mg.record.Total,
			obs.Int("to", int64(to)), obs.String("first", first))
		// Phase sub-spans: context pack at the source, context flight on the
		// wire, and remote-side reconstruction (worker/fork/ctx/sched).
		rec.SpanAt("core", "migrate.pack", from, th.id, start, mg.record.Origin)
		rec.SpanAt("core", "migrate.wire", from, th.id, mg.sentAt, mg.record.Transfer)
		rec.SpanAt("core", "migrate.dispatch", to, th.id, mg.arrivedAt, end-mg.arrivedAt)
		rec.Observe("migrate.forward", mg.record.Total)
	}
	return nil
}

// serveFork runs in the destination worker's context: it charges the
// remote-side costs of reconstructing the thread and resumes it.
func (p *Process) serveFork(t *sim.Task, mg *migration) {
	// Transfer time observed at the remote (context flight).
	mg.record.Transfer = mg.arrivedAt - mg.sentAt
	if mg.record.First {
		// Worker setup time already elapsed between arrival and now.
		mg.record.Worker = t.Now() - mg.arrivedAt
	}
	t.Sleep(threadFork)
	mg.record.Fork = threadFork
	t.Sleep(contextSetup)
	mg.record.Ctx = contextSetup
	if !mg.record.First {
		// On warm forks the run-queue insertion is paid in full; during
		// the first migration it overlaps worker initialization.
		t.Sleep(scheduleCost)
		mg.record.Sched = scheduleCost
	}
	// The handoff moves the thread's task from the source lane to the
	// destination lane and wakes it across lanes — both require serialized
	// context, so it commits on the global lane one lookahead later (the
	// context switch into the resumed thread, charged at fabric latency).
	p.m.commitGlobal(t, func() {
		if p.m.dead(mg.to) {
			// The destination died after the fork: leave the thread parked on
			// its source lane; its in-flight re-check surfaces the error.
			return
		}
		mg.resumed = true
		mg.th.task.SetLane(mg.to)
		mg.th.task.Unpark()
	})
}

// commitMigration appends one completed migration to the process counters.
// Threads finish migrations on their destination's lane, and the records are
// process-wide, so the append runs as a global-lane commit; record is fully
// populated by then, and global events order deterministically.
func (p *Process) commitMigration(t *sim.Task, record MigrationRecord) {
	p.m.commitGlobal(t, func() {
		p.migrations++
		p.migrationRecords = append(p.migrationRecords, record)
	})
}

// migrateBackward implements the cheap return path: collect the remote
// context, transfer it, update the original thread's state, and resume at
// the origin. The remote thread exits.
func (th *Thread) migrateBackward() {
	p := th.proc
	from := th.node
	record := MigrationRecord{
		ThreadID: th.id,
		From:     from,
		To:       p.origin,
		Backward: true,
	}
	start := th.task.Now()
	th.task.Sleep(backwardCollect)
	record.Origin = backwardCollect
	resumed := false
	sentAt := th.task.Now()
	p.m.net.Send(th.task, from, p.origin, &envelope{bytes: contextSize, deliver: func() {
		record.Transfer = p.m.eng.Now() - sentAt
		// The original thread's context is updated and it is resumed; charge
		// the update cost on the origin side. The task is spawned from the
		// envelope's global-lane delivery and stays global, so the final
		// cross-lane handoff (SetLane + Unpark) runs in serialized context.
		p.m.eng.Spawn("backward-update", func(t *sim.Task) {
			t.Sleep(backwardUpdate)
			record.Ctx = backwardUpdate
			resumed = true
			th.task.SetLane(p.origin)
			th.task.Unpark()
		})
	}})
	for !resumed {
		th.task.Park("migrating back to origin")
	}
	th.node = p.origin
	th.task.SetDetail(fmt.Sprintf("node %d", p.origin))
	record.Total = th.task.Now() - start
	p.commitMigration(th.task, record)

	if rec := p.m.params.Obs; rec != nil {
		rec.SpanAt("core", "migrate.backward", from, th.id, start, record.Total,
			obs.Int("to", int64(p.origin)))
		rec.Observe("migrate.backward", record.Total)
	}
}
