package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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

// snapshotWorkload runs three restartable workers over a few shared pages of
// three nodes: each a seeded mix of writes (some straddling pages), atomic
// adds, compare-and-swaps, reads — which downgrade a remote writer's copy and
// refetch one a remote write invalidated — migrations and checkpoints. Node 2
// dies mid-run under the plan the caller attaches, and the workers there
// restart at the origin with their lost pages restored from their snapshots.
func snapshotWorkload(seed int64) func(*Thread) error {
	return func(th *Thread) error {
		const pages, steps = 6, 400
		base, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "shared")
		if err != nil {
			return err
		}
		var ws []*Thread
		for i := range 3 {
			w, err := th.SpawnRestartable(func(w *Thread, _ []byte) error {
				rng := rand.New(rand.NewSource(seed<<8 | int64(w.Restarts())<<4 | int64(i)))
				_ = w.Migrate(i) // best effort: a restarted worker may find its node dead
				for range steps {
					word := base + mem.Addr(rng.Intn(pages*mem.PageSize/8)*8)
					switch op := rng.Intn(10); op {
					case 0, 1:
						buf := make([]byte, 1+rng.Intn(2*smallAccess))
						rng.Read(buf)
						at := base + mem.Addr(rng.Intn(pages*mem.PageSize-len(buf)+1))
						if err := w.Write(at, buf); err != nil {
							return err
						}
					case 2:
						if _, err := w.AddUint64(word, rng.Uint64()); err != nil {
							return err
						}
					case 3:
						v, err := w.ReadUint32(word)
						if err != nil {
							return err
						}
						if _, err := w.CompareAndSwapUint32(word, v^uint32(rng.Intn(2)), v+1); err != nil {
							return err
						}
					case 4, 5:
						buf := make([]byte, 1+rng.Intn(2*smallAccess))
						if err := w.Read(base+mem.Addr(rng.Intn(pages*mem.PageSize-len(buf)+1)), buf); err != nil {
							return err
						}
					case 6:
						_ = w.Migrate(rng.Intn(3))
					case 7, 8:
						if err := w.Checkpoint([]byte{byte(op)}); err != nil {
							return err
						}
					default:
						w.Sleep(time.Duration(rng.Intn(20_000)) * time.Nanosecond)
					}
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
		return nil
	}
}

// A checkpoint copies only the pages whose generation moved since the
// thread's last one, yet its snapshot must be what a fresh copy of every page
// present at the node would be, key for key and byte for byte: checked at each
// Checkpoint, before the thread yields, under each protocol, through remote
// invalidations, downgrades and refetches, migrations, and a crash whose
// restarted threads restore pages from their snapshots.
func TestCheckpointSnapshotIsAFullClone(t *testing.T) {
	var checks, held, copied int
	bad := 0
	checkpointHook = func(th *Thread, n int) {
		checks++
		copied += n
		snap := &th.ckpt.pages
		held += snap.Len()
		want := make(map[uint64][]byte)
		th.proc.mgr.PageTable(th.node).ForEach(func(vpn uint64, pte *mem.PTE) bool {
			if pte.Present {
				want[vpn] = bytes.Clone(pte.Frame)
			}
			return true
		})
		ok := snap.Len() == len(want)
		for vpn, data := range want {
			got, found := snap.Page(vpn)
			ok = ok && found && bytes.Equal(got, data)
		}
		if !ok && bad < 5 {
			bad++
			t.Errorf("checkpoint %d of thread %d at node %d (%v): snapshot of %d pages is not a copy of the %d present",
				checks, th.id, th.node, th.Now(), snap.Len(), len(want))
		}
	}
	defer func() { checkpointHook = nil }()
	restarted, restored := 0, 0
	for _, proto := range []dsm.Protocol{dsm.WriteInvalidate, dsm.HomeMigrate, dsm.DistributedManager} {
		for seed := int64(1); seed <= 4; seed++ {
			params := DefaultParams(3)
			params.DSM.Protocol = proto
			params.Seed = seed
			params.Chaos = &chaos.Plan{Seed: seed, Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Duration(seed) * time.Millisecond)}}}
			m := NewMachine(params)
			p := m.NewProcess(0, snapshotWorkload(seed))
			if err := m.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", proto, seed, err)
			}
			rep := p.Report()
			restarted += rep.Chaos.ThreadsRestarted
			restored += rep.Chaos.PagesRestored
		}
	}
	if copied == 0 || copied >= held || restarted == 0 || restored == 0 {
		t.Errorf("%d checkpoints held %d pages and copied %d, %d threads restarted, %d pages restored: the program exercises too little",
			checks, held, copied, restarted, restored)
	}
	t.Logf("%d checkpoints held %d pages and copied %d; %d threads restarted, %d pages restored", checks, held, copied, restarted, restored)
}
