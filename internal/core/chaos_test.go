package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/dsm"
	"dex/internal/mem"
)

// runChaos runs main on a cluster with a fault plan attached. Unlike
// runParams it does not check DSM invariants automatically — crash tests do
// so themselves after recovery has settled.
func runChaos(t *testing.T, nodes int, plan *chaos.Plan, main func(*Thread) error) (*Process, Report) {
	t.Helper()
	params := DefaultParams(nodes)
	params.Chaos = plan
	m := NewMachine(params)
	p := m.NewProcess(0, main)
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p, p.Report()
}

func TestChaosCrashSurfacesJoinError(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(5 * time.Millisecond)}},
	}
	var doomedErr, survivorErr error
	p, rep := runChaos(t, 3, plan, func(th *Thread) error {
		addr, err := th.Mmap(4*mem.PageSize, mem.ProtRead|mem.ProtWrite, "buf")
		if err != nil {
			return err
		}
		mk := func(node int, off mem.Addr) (*Thread, error) {
			return th.Spawn(func(w *Thread) error {
				if err := w.Migrate(node); err != nil {
					return err
				}
				if err := w.WriteUint64(addr+off, 42); err != nil {
					return err
				}
				w.Compute(50 * time.Millisecond) // still running at crash time
				return w.MigrateBack()
			})
		}
		doomed, err := mk(1, 0)
		if err != nil {
			return err
		}
		survivor, err := mk(2, mem.PageSize)
		if err != nil {
			return err
		}
		doomedErr = th.Join(doomed)
		survivorErr = th.Join(survivor)
		return nil
	})
	if doomedErr == nil || !strings.Contains(doomedErr.Error(), "node 1 crashed") {
		t.Fatalf("Join(doomed) = %v, want an error naming node 1", doomedErr)
	}
	if survivorErr != nil {
		t.Fatalf("Join(survivor) = %v, want nil", survivorErr)
	}
	if rep.Chaos == nil {
		t.Fatal("Report.Chaos is nil with a plan attached")
	}
	if rep.Chaos.NodesLost != 1 || rep.Chaos.ThreadsLost != 1 {
		t.Fatalf("NodesLost = %d, ThreadsLost = %d, want 1 and 1", rep.Chaos.NodesLost, rep.Chaos.ThreadsLost)
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestChaosLostMainThreadFailsRun: nothing joins the main thread, so its loss
// with its node is the process's error — the run must not end as a success
// for a program that never finished.
func TestChaosLostMainThreadFailsRun(t *testing.T) {
	params := DefaultParams(3)
	params.Chaos = &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(5 * time.Millisecond)}},
	}
	m := NewMachine(params)
	p := m.NewProcess(0, func(th *Thread) error {
		if err := th.Migrate(2); err != nil {
			return err
		}
		th.Compute(50 * time.Millisecond) // still running at crash time
		return th.MigrateBack()
	})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "thread 0 lost: node 2 crashed") {
		t.Fatalf("Run = %v, want the main thread's loss with node 2", err)
	}
	if p.Err() != err {
		t.Fatalf("Process.Err = %v, want Run's error %v", p.Err(), err)
	}
	if rep := p.Report(); rep.Chaos.ThreadsLost != 1 {
		t.Fatalf("ThreadsLost = %d, want 1", rep.Chaos.ThreadsLost)
	}
}

func TestChaosMigrationToDeadNodeFails(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Millisecond)}},
	}
	var migErr error
	_, _ = runChaos(t, 3, plan, func(th *Thread) error {
		th.Compute(2 * time.Millisecond) // let the crash happen first
		migErr = th.Migrate(2)
		if th.Node() != 0 {
			t.Errorf("thread moved to node %d after failed migration", th.Node())
		}
		return nil
	})
	if migErr == nil || !strings.Contains(migErr.Error(), "dead") {
		t.Fatalf("Migrate to crashed node = %v, want a dead-node error", migErr)
	}
}

func TestChaosCrashUnwindsFutexWait(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(5 * time.Millisecond)}},
	}
	var joinErr error
	_, rep := runChaos(t, 2, plan, func(th *Thread) error {
		p := th.proc
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "futex")
		if err != nil {
			return err
		}
		w, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			// Blocks forever: nobody wakes this futex. Only the node crash
			// releases the thread (by killing it).
			_, err := w.FutexWait(addr, 0)
			return err
		})
		if err != nil {
			return err
		}
		th.Compute(20 * time.Millisecond) // past crash + lease detection
		if n := p.fut.Waiting(addr); n != 0 {
			t.Errorf("futex queue still holds %d dead waiters", n)
		}
		joinErr = th.Join(w)
		return nil
	})
	if joinErr == nil {
		t.Fatal("Join on futex-parked crashed thread returned nil, want crash error")
	}
	if rep.Chaos.ThreadsLost != 1 {
		t.Fatalf("ThreadsLost = %d, want 1", rep.Chaos.ThreadsLost)
	}
}

func TestChaosPartitionSuspectsButDoesNotKill(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 1,
		Partitions: []chaos.Partition{{
			A:    []int{0},
			B:    []int{1},
			From: chaos.Duration(2 * time.Millisecond),
			To:   chaos.Duration(12 * time.Millisecond),
		}},
	}
	var joinErr error
	p, rep := runChaos(t, 2, plan, func(th *Thread) error {
		w, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			w.Compute(20 * time.Millisecond) // alive through the partition
			return w.MigrateBack()
		})
		if err != nil {
			return err
		}
		joinErr = th.Join(w)
		return nil
	})
	if joinErr != nil {
		t.Fatalf("Join = %v, want nil: a partition must not kill threads", joinErr)
	}
	if rep.Chaos.LeaseSuspects == 0 {
		t.Fatal("LeaseSuspects = 0 across a 10ms partition with a 4ms lease timeout")
	}
	if rep.Chaos.NodesLost != 0 || rep.Chaos.ThreadsLost != 0 {
		t.Fatalf("NodesLost = %d, ThreadsLost = %d, want 0 and 0", rep.Chaos.NodesLost, rep.Chaos.ThreadsLost)
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// chaosWorkload is a fixed multi-node workload used by the determinism
// tests: workers write and re-read shared pages from their assigned nodes.
func chaosWorkload(th *Thread) error {
	addr, err := th.Mmap(8*mem.PageSize, mem.ProtRead|mem.ProtWrite, "buf")
	if err != nil {
		return err
	}
	var ws []*Thread
	for i := 0; i < 4; i++ {
		i := i
		node := 1 + i%2
		w, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(node); err != nil {
				return err
			}
			for round := 0; round < 8; round++ {
				off := mem.Addr((i*2 + round%2) * mem.PageSize)
				if err := w.WriteUint64(addr+off, uint64(i*100+round)); err != nil {
					return err
				}
				if _, err := w.ReadUint64(addr + mem.Addr(((i+round)%8)*mem.PageSize)); err != nil {
					return err
				}
				w.Compute(200 * time.Microsecond)
			}
			return w.MigrateBack()
		})
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		th.Join(w) // crash errors are fine here; hangs are not
	}
	return nil
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    11,
		Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
		Dup:     []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
		Delay:   []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3, Jitter: chaos.Duration(20 * time.Microsecond)}},
		Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(4 * time.Millisecond)}},
	}
	run := func() Report {
		_, rep := runChaos(t, 3, plan, chaosWorkload)
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed+plan diverged:\n%+v\nvs\n%+v", r1, r2)
	}
}

func TestChaosEmptyPlanIsIdenticalToNone(t *testing.T) {
	run := func(plan *chaos.Plan) Report {
		params := DefaultParams(3)
		params.Chaos = plan
		m := NewMachine(params)
		p := m.NewProcess(0, chaosWorkload)
		if err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Report()
	}
	base := run(nil)
	empty := run(&chaos.Plan{Seed: 99}) // seed alone does not activate chaos
	if !reflect.DeepEqual(base, empty) {
		t.Fatalf("empty plan changed the run:\n%+v\nvs\n%+v", base, empty)
	}
	if empty.Chaos != nil {
		t.Fatal("Report.Chaos non-nil for an empty plan")
	}
}

// TestChaosDistDeadShardWithoutWorkers: under DistributedManager a node is
// a directory shard even when no thread ever migrates to it, so the lease
// protocol must detect its crash and rebuild its directory slice anyway.
// All threads stay at the origin; node 2 (an anchor shard for roughly a
// third of the pages) crashes before any page is touched. Without
// whole-cluster lease coverage the death is never declared and every fault
// on a page anchored at the dead shard retries forever.
func TestChaosDistDeadShardWithoutWorkers(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Millisecond)}},
	}
	params := DefaultParams(3)
	params.Chaos = plan
	params.DSM.Protocol = dsm.DistributedManager
	m := NewMachine(params)
	const pages = 32
	p := m.NewProcess(0, func(th *Thread) error {
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "buf")
		if err != nil {
			return err
		}
		th.Compute(2 * time.Millisecond) // let the crash land first
		for i := mem.Addr(0); i < pages; i++ {
			if err := th.WriteUint64(addr+i*mem.PageSize, uint64(i)+1); err != nil {
				return err
			}
		}
		for i := mem.Addr(0); i < pages; i++ {
			v, err := th.ReadUint64(addr + i*mem.PageSize)
			if err != nil {
				return err
			}
			if v != uint64(i)+1 {
				t.Errorf("page %d: read %d, want %d", i, v, uint64(i)+1)
			}
		}
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := p.Report()
	if rep.Chaos == nil || rep.Chaos.NodesLost != 1 {
		t.Fatalf("NodesLost = %+v, want 1 dead node declared", rep.Chaos)
	}
	if rep.Chaos.ThreadsLost != 0 {
		t.Fatalf("ThreadsLost = %d, want 0 (no thread ever ran on the dead shard)", rep.Chaos.ThreadsLost)
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// A lease tick allocates nothing: the envelopes are built once per node, and
// the ping task and the pong task each ping starts at its node run from
// records recycled through the process's free list. The origin of a four-node
// dist process monitors the three directory hosts, so a run computing 20 ms
// longer — 40 more ticks at the default 500 µs period — allocates no more
// objects.
func TestLeaseTickAllocsPerRun(t *testing.T) {
	run := func(d time.Duration) func() {
		return func() {
			params := DefaultParams(4)
			params.DSM.Protocol = dsm.DistributedManager
			// A crash long after the run keeps the plan from being empty.
			params.Chaos = &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 3, At: chaos.Duration(time.Hour)}}}
			m := NewMachine(params)
			m.NewProcess(0, func(th *Thread) error {
				th.Compute(d)
				return nil
			})
			if err := m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
	}
	short, long := testing.AllocsPerRun(3, run(10*time.Millisecond)), testing.AllocsPerRun(3, run(30*time.Millisecond))
	// Rounded: a slice that grows in one run and not the other is one object.
	if perTick := math.Round((long - short) / 40); perTick != 0 {
		t.Errorf("a lease tick pinging three nodes allocates %v objects (%v over 40 ticks), want 0", perTick, long-short)
	}
}
