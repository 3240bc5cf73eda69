package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/dsm"
	"dex/internal/mem"
	"dex/internal/obs"
)

// crashPlan kills node 1 at 2ms; with the default 4ms lease timeout the
// death is declared around 6ms, while the restartable workers below are
// still mid-run (12 x 1ms iterations).
func restartCrashPlan(seed int64) *chaos.Plan {
	return &chaos.Plan{
		Seed:    seed,
		Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(2 * time.Millisecond)}},
	}
}

// restartWorkload spawns two checkpointing workers on the doomed node. Each
// iteration checkpoints its loop counter, overwrites its slot page with the
// iteration number, and computes; after the crash the workers must resume
// at the origin from their last checkpoint and finish the remaining
// iterations, so Join returns nil and the slots hold the final value.
func restartWorkload(th *Thread) error {
	const iters = 12
	addr, err := th.Mmap(2*mem.PageSize, mem.ProtRead|mem.ProtWrite, "slots")
	if err != nil {
		return err
	}
	var ws []*Thread
	for i := 0; i < 2; i++ {
		slot := addr + mem.Addr(i*mem.PageSize)
		w, err := th.SpawnRestartable(func(w *Thread, blob []byte) error {
			start := 0
			if len(blob) >= 4 {
				start = int(binary.LittleEndian.Uint32(blob))
			}
			// Best-effort placement: after the crash the node is dead and
			// the restarted incarnation stays at the origin.
			_ = w.Migrate(1)
			for iter := start; iter < iters; iter++ {
				var reg [4]byte
				binary.LittleEndian.PutUint32(reg[:], uint32(iter))
				if err := w.Checkpoint(reg[:]); err != nil {
					return err
				}
				if err := w.WriteUint64(slot, uint64(iter)); err != nil {
					return err
				}
				w.Compute(time.Millisecond)
			}
			return nil
		})
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		if err := th.Join(w); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ {
		v, err := th.ReadUint64(addr + mem.Addr(i*mem.PageSize))
		if err != nil {
			return err
		}
		if v != iters-1 {
			return fmt.Errorf("slot %d holds %d after restart, want %d", i, v, iters-1)
		}
	}
	return nil
}

func TestChaosRestartSurvivesCrash(t *testing.T) {
	p, rep := runChaos(t, 3, restartCrashPlan(1), restartWorkload)
	if rep.Chaos == nil {
		t.Fatal("Report.Chaos is nil with a plan attached")
	}
	if rep.Chaos.NodesLost != 1 {
		t.Fatalf("NodesLost = %d, want 1", rep.Chaos.NodesLost)
	}
	if rep.Chaos.ThreadsLost != 0 {
		t.Fatalf("ThreadsLost = %d, want 0: restartable threads are not lost", rep.Chaos.ThreadsLost)
	}
	if rep.Chaos.ThreadsRestarted != 2 {
		t.Fatalf("ThreadsRestarted = %d, want 2", rep.Chaos.ThreadsRestarted)
	}
	if rep.Chaos.PagesRestored == 0 {
		t.Fatal("PagesRestored = 0: each worker checkpointed its exclusive slot page on the dead node")
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restart: %v", err)
	}
}

// TestRehomeSpanRecordedWhereTheReclaimCommits: the entries a dead home leaves
// behind are rebuilt inside the death commit, a global-lane event. Their spans
// carry its time and its lane — they export in emission order, ahead of the
// commit's own node.dead — while Node names where each page landed.
func TestRehomeSpanRecordedWhereTheReclaimCommits(t *testing.T) {
	for _, tc := range []struct {
		proto dsm.Protocol
		span  string
	}{{dsm.HomeMigrate, "hm.rehome"}, {dsm.DistributedManager, "dist.rebuild"}} {
		params := DefaultParams(3)
		params.Chaos = restartCrashPlan(1)
		params.DSM.Protocol = tc.proto
		params.Obs = obs.NewRecorder()
		m := NewMachine(params)
		m.NewProcess(0, restartWorkload)
		if err := m.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tc.span, err)
		}
		spans := params.Obs.Spans()
		commit := slices.IndexFunc(spans, func(s obs.Span) bool { return s.Name == "node.dead" })
		if commit < 0 {
			t.Fatalf("%s: no node.dead span", tc.span)
		}
		at, rebuilt := spans[commit].Start, 0
		for i, s := range spans {
			if s.Name != tc.span || s.Start != at {
				continue
			}
			rebuilt++
			if i > commit {
				t.Errorf("%s at %v exported after the node.dead that follows it in the commit", tc.span, at)
			}
			if s.Node == 1 || s.Dur != 0 {
				t.Errorf("%s: node %d, duration %v; want an instant at a live node", tc.span, s.Node, s.Dur)
			}
		}
		if rebuilt == 0 {
			t.Errorf("no %s span at the commit time %v", tc.span, at)
		}
	}
}

// TestChaosRestartDeterministic: the full crash/restart cycle is part of the
// deterministic simulation — same seed and plan give a byte-identical
// report, including restart counts and restored pages.
func TestChaosRestartDeterministic(t *testing.T) {
	_, rep1 := runChaos(t, 3, restartCrashPlan(21), restartWorkload)
	_, rep2 := runChaos(t, 3, restartCrashPlan(21), restartWorkload)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("same seed+plan diverged:\n%+v\nvs\n%+v", rep1, rep2)
	}
	if rep1.Chaos.ThreadsRestarted == 0 {
		t.Fatal("determinism test exercised no restart")
	}
}

// TestChaosRestartMixedFallsBackToLoss: if any thread on the dead node is
// not restartable, the whole node takes the legacy loss path — partial
// restart would leave the application in an inconsistent state.
func TestChaosRestartMixedFallsBackToLoss(t *testing.T) {
	var plainErr, ckptErr error
	_, rep := runChaos(t, 3, restartCrashPlan(1), func(th *Thread) error {
		restartable, err := th.SpawnRestartable(func(w *Thread, blob []byte) error {
			_ = w.Migrate(1)
			if err := w.Checkpoint(nil); err != nil {
				return err
			}
			w.Compute(12 * time.Millisecond)
			return nil
		})
		if err != nil {
			return err
		}
		plain, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			w.Compute(12 * time.Millisecond)
			return w.MigrateBack()
		})
		if err != nil {
			return err
		}
		ckptErr = th.Join(restartable)
		plainErr = th.Join(plain)
		return nil
	})
	if plainErr == nil || !strings.Contains(plainErr.Error(), "crashed") {
		t.Fatalf("Join(plain) = %v, want a crash error", plainErr)
	}
	if ckptErr == nil {
		t.Fatal("Join(restartable) = nil: with a non-restartable peer on the node the legacy path must apply to all")
	}
	if rep.Chaos.ThreadsRestarted != 0 {
		t.Fatalf("ThreadsRestarted = %d, want 0 on the mixed node", rep.Chaos.ThreadsRestarted)
	}
	if rep.Chaos.ThreadsLost != 2 {
		t.Fatalf("ThreadsLost = %d, want 2", rep.Chaos.ThreadsLost)
	}
}

// TestChaosRestartWithoutInjectorIsFree: Checkpoint is a no-op without a
// chaos plan, and SpawnRestartable behaves exactly like Spawn.
func TestChaosRestartWithoutInjectorIsFree(t *testing.T) {
	m := NewMachine(DefaultParams(2))
	p := m.NewProcess(0, func(th *Thread) error {
		w, err := th.SpawnRestartable(func(w *Thread, blob []byte) error {
			if blob != nil {
				t.Errorf("fresh spawn got blob %v", blob)
			}
			if err := w.Checkpoint([]byte{1, 2, 3}); err != nil {
				return err
			}
			w.Compute(time.Millisecond)
			return nil
		})
		if err != nil {
			return err
		}
		if err := th.Join(w); err != nil {
			return err
		}
		if w.Restarts() != 0 {
			t.Errorf("Restarts = %d without faults", w.Restarts())
		}
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.Report().Chaos != nil {
		t.Fatal("Report.Chaos non-nil without a plan")
	}
}
