package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dex/internal/mem"
	"dex/internal/obs"
)

func TestReadReplicateCorrectAndCheaper(t *testing.T) {
	const pages = 16
	_, _ = run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "data")
		if err != nil {
			return err
		}
		want := make([]byte, pages*mem.PageSize)
		for i := range want {
			want[i] = byte(i * 13)
		}
		if err := th.Write(addr, want); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		got := make([]byte, len(want))
		if err := th.ReadReplicate(addr, got); err != nil {
			return err
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("byte %d = %d, want %d", i, got[i], want[i])
				break
			}
		}
		// A second replicate re-read of now-local pages must be nearly
		// free (no bus transfer, batched CPU cost only).
		start := th.Now()
		if err := th.ReadReplicate(addr, got); err != nil {
			return err
		}
		if d := th.Now() - start; d > 50*time.Microsecond {
			t.Errorf("cached ReadReplicate took %v", d)
		}
		return th.MigrateBack()
	})
}

func TestReadReplicateRespectsProtection(t *testing.T) {
	_, _ = run1(t, 1, func(th *Thread) error {
		if err := th.ReadReplicate(0x10, make([]byte, 8)); !errors.Is(err, ErrSegfault) {
			t.Errorf("unmapped replicate: %v", err)
		}
		return nil
	})
}

func TestDelegationCountsAndLocality(t *testing.T) {
	_, rep := run1(t, 2, func(th *Thread) error {
		// At the origin, futex ops run inline: no delegation.
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "f")
		if err != nil {
			return err
		}
		if _, err := th.FutexWake(addr, 1); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		// Remote: each op is one delegated request.
		if _, err := th.FutexWake(addr, 1); err != nil {
			return err
		}
		if _, err := th.FutexWait(addr, 999); err != nil { // EAGAIN path
			return err
		}
		return th.MigrateBack()
	})
	// Two futex delegations plus the on-demand VMA queries the remote's
	// first accesses triggered; the origin-side ops must not add any.
	if rep.Delegations != 2+rep.VMAQueries {
		t.Fatalf("Delegations = %d with %d VMA queries, want %d",
			rep.Delegations, rep.VMAQueries, 2+rep.VMAQueries)
	}
}

func TestRemoteMmapDelegates(t *testing.T) {
	_, rep := run1(t, 2, func(th *Thread) error {
		if err := th.Migrate(1); err != nil {
			return err
		}
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "remote-mmap")
		if err != nil {
			return err
		}
		// The new mapping is usable immediately from the remote (the VMA
		// comes back through on-demand sync).
		if err := th.WriteUint64(addr, 5); err != nil {
			return err
		}
		v, err := th.ReadUint64(addr)
		if err != nil || v != 5 {
			t.Errorf("remote-mmap readback = %d, %v", v, err)
		}
		return th.MigrateBack()
	})
	if rep.Delegations == 0 {
		t.Fatal("remote mmap did not delegate to the origin")
	}
}

func TestWorkerSerializesSimultaneousMigrations(t *testing.T) {
	// Eight threads migrating to the same node at once: the remote worker
	// forks them one at a time, so arrival times must be spread by at
	// least the fork cost.
	var arrivals []time.Duration
	_, _ = run1(t, 2, func(th *Thread) error {
		var ws []*Thread
		for i := 0; i < 8; i++ {
			w, err := th.Spawn(func(w *Thread) error {
				if err := w.Migrate(1); err != nil {
					return err
				}
				arrivals = append(arrivals, w.Now())
				return w.MigrateBack()
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			th.Join(w)
		}
		return nil
	})
	if len(arrivals) != 8 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	minGap := threadFork + contextSetup
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap < minGap {
			t.Fatalf("arrivals %d and %d only %v apart (fork takes %v)", i-1, i, gap, minGap)
		}
	}
}

func TestMigrateBadNode(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		if err := th.Migrate(7); !errors.Is(err, ErrBadNode) {
			t.Errorf("Migrate(7) = %v", err)
		}
		if err := th.Migrate(-1); !errors.Is(err, ErrBadNode) {
			t.Errorf("Migrate(-1) = %v", err)
		}
		if err := th.Migrate(th.Node()); err != nil { // no-op
			t.Errorf("self-migrate = %v", err)
		}
		return nil
	})
}

func TestRemoteToRemoteMigration(t *testing.T) {
	_, rep := run1(t, 3, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "x")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 1); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		if err := th.Migrate(2); err != nil { // remote -> remote
			return err
		}
		if th.Node() != 2 {
			t.Errorf("Node = %d", th.Node())
		}
		v, err := th.ReadUint64(addr)
		if err != nil || v != 1 {
			t.Errorf("read at node 2 = %d, %v", v, err)
		}
		return th.MigrateBack()
	})
	if rep.Migrations != 3 {
		t.Fatalf("Migrations = %d, want 3", rep.Migrations)
	}
}

func TestMprotectEagerSyncAblation(t *testing.T) {
	params := DefaultParams(2)
	params.EagerVMASync = true
	_, _ = runParams(t, params, func(th *Thread) error {
		if err := th.Migrate(1); err != nil {
			return err
		}
		if err := th.MigrateBack(); err != nil {
			return err
		}
		addr, err := th.Mmap(2*mem.PageSize, mem.ProtRead|mem.ProtWrite, "p")
		if err != nil {
			return err
		}
		// Permissive mprotect is broadcast eagerly too under the ablation.
		if err := th.Mprotect(addr, mem.PageSize, mem.ProtRead); err != nil {
			return err
		}
		if err := th.Mprotect(addr, mem.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		// The remote cache is already current: writable again.
		if err := th.WriteUint64(addr, 9); err != nil {
			return err
		}
		return th.MigrateBack()
	})
}

func TestMunmapWhileRemote(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "doomed")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 3); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		if _, err := th.ReadUint64(addr); err != nil {
			return err
		}
		// munmap issued from the remote side is delegated and the shrink
		// broadcast reaches this node's own cache.
		if err := th.Munmap(addr, mem.PageSize); err != nil {
			return err
		}
		if err := th.Read(addr, make([]byte, 8)); !errors.Is(err, ErrSegfault) {
			t.Errorf("read after remote munmap: %v", err)
		}
		return th.MigrateBack()
	})
}

func TestConcurrentMixedChaos(t *testing.T) {
	// Random mixture of everything: migrations, reads, writes, CAS, futex
	// wake, prefetch, across 4 nodes — then protocol invariants.
	for seed := int64(1); seed <= 2; seed++ {
		params := DefaultParams(4)
		params.Seed = seed
		_, _ = runParams(t, params, func(th *Thread) error {
			const regionPages = 8
			addr, err := th.Mmap(regionPages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "chaos")
			if err != nil {
				return err
			}
			var ws []*Thread
			for i := 0; i < 8; i++ {
				i := i
				w, err := th.Spawn(func(w *Thread) error {
					rng := rand.New(rand.NewSource(seed*100 + int64(i)))
					for op := 0; op < 40; op++ {
						a := addr + mem.Addr(rng.Intn(regionPages))*mem.PageSize + mem.Addr(8*rng.Intn(16))
						switch rng.Intn(6) {
						case 0:
							if err := w.Migrate(rng.Intn(4)); err != nil {
								return err
							}
						case 1:
							if _, err := w.ReadUint64(a); err != nil {
								return err
							}
						case 2:
							if err := w.WriteUint64(a, uint64(op)); err != nil {
								return err
							}
						case 3:
							if _, err := w.AddUint64(a, 1); err != nil {
								return err
							}
						case 4:
							if _, err := w.CompareAndSwapUint32(a, 0, uint32(op)); err != nil {
								return err
							}
						case 5:
							if _, err := w.Prefetch(addr, regionPages*mem.PageSize); err != nil {
								return err
							}
						}
						w.Compute(time.Duration(rng.Intn(20)) * time.Microsecond)
					}
					return w.Migrate(0)
				})
				if err != nil {
					return err
				}
				ws = append(ws, w)
			}
			for _, w := range ws {
				th.Join(w)
			}
			return nil
		})
	}
}

func TestReportStringsAndAccessors(t *testing.T) {
	m := NewMachine(DefaultParams(2))
	if m.Nodes() != 2 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	if m.Network() == nil || m.Engine() == nil {
		t.Fatal("accessors returned nil")
	}
	p := m.NewProcess(0, func(th *Thread) error {
		if th.Process().pid != 0 {
			t.Errorf("pid = %d", th.Process().pid)
		}
		if th.Process().Origin() != 0 {
			t.Errorf("Origin = %d", th.Process().Origin())
		}
		th.SetSite("x")
		if th.Site() != "x" {
			t.Errorf("Site = %q", th.Site())
		}
		_, err := th.Mmap(mem.PageSize, mem.ProtRead, "obj")
		return err
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if r := p.Report().Regions; len(r) != 1 || r[0].Label != "obj" || r[0].Len != mem.PageSize {
		t.Fatalf("Report.Regions = %v, want the one mapping", r)
	}
}

func TestProcessAtNonzeroOrigin(t *testing.T) {
	m := NewMachine(DefaultParams(3))
	p := m.NewProcess(2, func(th *Thread) error {
		if th.Node() != 2 {
			return fmt.Errorf("started at node %d", th.Node())
		}
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "x")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 11); err != nil {
			return err
		}
		if err := th.Migrate(0); err != nil { // forward migration away from origin 2
			return err
		}
		v, err := th.ReadUint64(addr)
		if err != nil || v != 11 {
			return fmt.Errorf("read = %d, %v", v, err)
		}
		return th.Migrate(2) // backward
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Migrations != 2 {
		t.Fatalf("Migrations = %d", rep.Migrations)
	}
	if !rep.MigrationRecords[1].Backward {
		t.Fatal("return to origin 2 not recorded as backward")
	}
}

// Without an observer EmitSpan allocates nothing: its args do not escape, so
// the slice a variadic call builds stays on the caller's stack — the serving
// layer emits a span per request, traced or not.
func TestEmitSpanUntracedAllocsPerRun(t *testing.T) {
	var allocs float64
	run1(t, 1, func(th *Thread) error {
		allocs = testing.AllocsPerRun(100, func() {
			th.EmitSpan("serve", "req.shed", 0, obs.Int("tenant", 1), obs.String("why", "429"))
		})
		return nil
	})
	if allocs != 0 {
		t.Fatalf("an untraced EmitSpan allocates %v objects, want 0", allocs)
	}
}
