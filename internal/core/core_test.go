package core

import (
	"errors"
	"testing"
	"time"

	"dex/internal/dsm"
	"dex/internal/mem"
)

func run1(t *testing.T, nodes int, main func(*Thread) error) (*Process, Report) {
	t.Helper()
	return runParams(t, DefaultParams(nodes), main)
}

func runParams(t *testing.T, params Params, main func(*Thread) error) (*Process, Report) {
	t.Helper()
	m := NewMachine(params)
	p := m.NewProcess(0, main)
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := p.mgr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return p, p.Report()
}

func TestMmapReadWriteRoundTrip(t *testing.T) {
	_, _ = run1(t, 1, func(th *Thread) error {
		addr, err := th.Mmap(3*mem.PageSize, mem.ProtRead|mem.ProtWrite, "buf")
		if err != nil {
			return err
		}
		data := make([]byte, 2*mem.PageSize)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := th.Write(addr+100, data); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if err := th.Read(addr+100, got); err != nil {
			return err
		}
		for i := range data {
			if got[i] != data[i] {
				t.Errorf("byte %d = %d, want %d", i, got[i], data[i])
				break
			}
		}
		return nil
	})
}

func TestTypedAccessors(t *testing.T) {
	_, _ = run1(t, 1, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "vals")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 0xdeadbeefcafe); err != nil {
			return err
		}
		v, err := th.ReadUint64(addr)
		if err != nil || v != 0xdeadbeefcafe {
			t.Errorf("ReadUint64 = %#x, %v", v, err)
		}
		if err := th.WriteFloat64(addr+8, 3.25); err != nil {
			return err
		}
		f, err := th.ReadFloat64(addr + 8)
		if err != nil || f != 3.25 {
			t.Errorf("ReadFloat64 = %v, %v", f, err)
		}
		if err := th.WriteUint32(addr+16, 77); err != nil {
			return err
		}
		u, err := th.ReadUint32(addr + 16)
		if err != nil || u != 77 {
			t.Errorf("ReadUint32 = %d, %v", u, err)
		}
		return nil
	})
}

func TestSegfaultOnUnmapped(t *testing.T) {
	m := NewMachine(DefaultParams(1))
	var got error
	m.NewProcess(0, func(th *Thread) error {
		got = th.Read(0x100, make([]byte, 8))
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(got, ErrSegfault) {
		t.Fatalf("err = %v, want ErrSegfault", got)
	}
}

func TestProtectionViolation(t *testing.T) {
	_, _ = run1(t, 1, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead, "ro")
		if err != nil {
			return err
		}
		if err := th.Write(addr, []byte{1}); !errors.Is(err, ErrProtection) {
			t.Errorf("write to read-only VMA: %v", err)
		}
		return nil
	})
}

func TestMigrateAndAccess(t *testing.T) {
	p, rep := run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "shared")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 41); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		if th.Node() != 1 {
			t.Errorf("Node = %d after migrate", th.Node())
		}
		v, err := th.ReadUint64(addr) // on-demand VMA sync + page fault
		if err != nil {
			return err
		}
		if v != 41 {
			t.Errorf("remote read = %d", v)
		}
		if err := th.WriteUint64(addr, v+1); err != nil {
			return err
		}
		if err := th.MigrateBack(); err != nil {
			return err
		}
		if th.Node() != 0 {
			t.Errorf("Node = %d after migrate back", th.Node())
		}
		v, err = th.ReadUint64(addr)
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("origin read-back = %d", v)
		}
		return nil
	})
	if rep.Migrations != 2 {
		t.Fatalf("Migrations = %d, want 2", rep.Migrations)
	}
	if rep.VMAQueries == 0 {
		t.Fatal("expected on-demand VMA queries from the remote")
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

func TestMigrationLatenciesMatchPaper(t *testing.T) {
	_, rep := run1(t, 2, func(th *Thread) error {
		for i := 0; i < 3; i++ {
			if err := th.Migrate(1); err != nil {
				return err
			}
			if err := th.MigrateBack(); err != nil {
				return err
			}
		}
		return nil
	})
	if len(rep.MigrationRecords) != 6 {
		t.Fatalf("records = %d", len(rep.MigrationRecords))
	}
	first := rep.MigrationRecords[0]
	if !first.First || first.Backward {
		t.Fatalf("first record = %+v", first)
	}
	// Table II: first forward 812.1 µs.
	if first.Total < 790*time.Microsecond || first.Total > 835*time.Microsecond {
		t.Fatalf("first forward migration = %v, want ~812µs", first.Total)
	}
	if first.Worker < 600*time.Microsecond {
		t.Fatalf("worker setup = %v, want ~620µs", first.Worker)
	}
	second := rep.MigrationRecords[2]
	if second.First {
		t.Fatal("second forward marked First")
	}
	// Table II: second forward 236.6 µs.
	if second.Total < 225*time.Microsecond || second.Total > 250*time.Microsecond {
		t.Fatalf("warm forward migration = %v, want ~237µs", second.Total)
	}
	back := rep.MigrationRecords[1]
	if !back.Backward {
		t.Fatalf("record 1 not backward: %+v", back)
	}
	// Table II: backward 24.7 µs.
	if back.Total < 20*time.Microsecond || back.Total > 30*time.Microsecond {
		t.Fatalf("backward migration = %v, want ~25µs", back.Total)
	}
}

func TestSpawnJoinAcrossNodes(t *testing.T) {
	const nodes = 4
	_, rep := run1(t, nodes, func(th *Thread) error {
		addr, err := th.Mmap(uint64(nodes)*mem.PageSize, mem.ProtRead|mem.ProtWrite, "slots")
		if err != nil {
			return err
		}
		var workers []*Thread
		for i := 1; i < nodes; i++ {
			i := i
			w, err := th.Spawn(func(wt *Thread) error {
				if err := wt.Migrate(i); err != nil {
					return err
				}
				// Each worker writes into its own page.
				if err := wt.WriteUint64(addr+mem.Addr(i*mem.PageSize), uint64(i*i)); err != nil {
					return err
				}
				return wt.MigrateBack()
			})
			if err != nil {
				return err
			}
			workers = append(workers, w)
		}
		for _, w := range workers {
			th.Join(w)
		}
		for i := 1; i < nodes; i++ {
			v, err := th.ReadUint64(addr + mem.Addr(i*mem.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i*i) {
				t.Errorf("slot %d = %d, want %d", i, v, i*i)
			}
		}
		return nil
	})
	if rep.Threads != nodes {
		t.Fatalf("Threads = %d, want %d", rep.Threads, nodes)
	}
	if rep.Migrations != 2*(nodes-1) {
		t.Fatalf("Migrations = %d", rep.Migrations)
	}
}

func TestSpawnOffOriginRejected(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		if err := th.Migrate(1); err != nil {
			return err
		}
		_, err := th.Spawn(func(*Thread) error { return nil })
		if !errors.Is(err, ErrNotAtOrigin) {
			t.Errorf("Spawn off-origin err = %v", err)
		}
		return th.MigrateBack()
	})
}

func TestFutexWaitWake(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "futex")
		if err != nil {
			return err
		}
		if err := th.WriteUint32(addr, 0); err != nil {
			return err
		}
		var wakeTime, wokenAt time.Duration
		waiter, err := th.Spawn(func(wt *Thread) error {
			if err := wt.Migrate(1); err != nil {
				return err
			}
			slept, err := wt.FutexWait(addr, 0)
			if err != nil {
				return err
			}
			if !slept {
				t.Error("FutexWait returned EAGAIN unexpectedly")
			}
			wokenAt = wt.Now()
			return wt.MigrateBack()
		})
		if err != nil {
			return err
		}
		th.Compute(5 * time.Millisecond)
		if err := th.WriteUint32(addr, 1); err != nil {
			return err
		}
		wakeTime = th.Now()
		if _, err := th.FutexWake(addr, 1); err != nil {
			return err
		}
		th.Join(waiter)
		if wokenAt < wakeTime {
			t.Errorf("waiter woke at %v before wake at %v", wokenAt, wakeTime)
		}
		return nil
	})
}

func TestFutexWaitEAGAIN(t *testing.T) {
	_, _ = run1(t, 1, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "futex")
		if err != nil {
			return err
		}
		if err := th.WriteUint32(addr, 5); err != nil {
			return err
		}
		slept, err := th.FutexWait(addr, 4) // value mismatch
		if err != nil {
			return err
		}
		if slept {
			t.Error("FutexWait slept despite changed value")
		}
		return nil
	})
}

func TestCASAndAtomicAdd(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "atomics")
		if err != nil {
			return err
		}
		ok, err := th.CompareAndSwapUint32(addr, 0, 10)
		if err != nil || !ok {
			t.Errorf("CAS(0->10) = %v, %v", ok, err)
		}
		ok, err = th.CompareAndSwapUint32(addr, 0, 20)
		if err != nil || ok {
			t.Errorf("CAS with stale old succeeded")
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		ok, err = th.CompareAndSwapUint32(addr, 10, 30) // remote CAS pulls page
		if err != nil || !ok {
			t.Errorf("remote CAS = %v, %v", ok, err)
		}
		v, err := th.AddUint64(addr+8, 5)
		if err != nil || v != 5 {
			t.Errorf("AddUint64 = %d, %v", v, err)
		}
		return th.MigrateBack()
	})
}

func TestMunmapDropsPagesEverywhere(t *testing.T) {
	p, _ := run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(2*mem.PageSize, mem.ProtRead|mem.ProtWrite, "doomed")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 1); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		if _, err := th.ReadUint64(addr); err != nil { // replicate to node 1
			return err
		}
		if err := th.Munmap(addr, 2*mem.PageSize); err != nil {
			return err
		}
		if err := th.Read(addr, make([]byte, 8)); !errors.Is(err, ErrSegfault) {
			t.Errorf("read after munmap = %v, want segfault", err)
		}
		return th.MigrateBack()
	})
	if got := p.mgr.PageTable(1).Present(); got != 0 {
		t.Fatalf("node 1 still maps %d pages after munmap", got)
	}
}

func TestMprotectDowngradeBroadcast(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "ro-later")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 9); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		if err := th.WriteUint64(addr, 10); err != nil { // node 1 writable copy
			return err
		}
		if err := th.Mprotect(addr, mem.PageSize, mem.ProtRead); err != nil {
			return err
		}
		if err := th.Write(addr, []byte{1}); !errors.Is(err, ErrProtection) {
			t.Errorf("write after downgrade = %v, want protection error", err)
		}
		v, err := th.ReadUint64(addr)
		if err != nil || v != 10 {
			t.Errorf("read after downgrade = %d, %v", v, err)
		}
		return th.MigrateBack()
	})
}

// checkAccess asks the region of the thread's last access first; an mprotect
// or munmap in between must not be answered from that copy, at the origin or
// on a node with a VMA cache of its own.
func TestCheckAccessForgetsAChangedVMA(t *testing.T) {
	for _, node := range []int{0, 1} {
		params := DefaultParams(2)
		params.EventLimit = 100_000 // a fault on an unmapped page would retry for ever
		_, _ = runParams(t, params, func(th *Thread) error {
			addr, err := th.Mmap(2*mem.PageSize, mem.ProtRead|mem.ProtWrite, "changing")
			if err != nil {
				return err
			}
			if err := th.Migrate(node); err != nil {
				return err
			}
			for i := 0; i < 2; i++ { // the second access is answered from the first's region
				if err := th.WriteUint64(addr, 1); err != nil {
					return err
				}
			}
			if err := th.Mprotect(addr, 2*mem.PageSize, mem.ProtRead); err != nil {
				return err
			}
			if err := th.WriteUint64(addr, 2); !errors.Is(err, ErrProtection) {
				t.Errorf("node %d: write after mprotect = %v, want protection error", node, err)
			}
			if _, err := th.ReadUint64(addr); err != nil {
				return err
			}
			if err := th.Munmap(addr, 2*mem.PageSize); err != nil {
				return err
			}
			if _, err := th.ReadUint64(addr); !errors.Is(err, ErrSegfault) {
				t.Errorf("node %d: read after munmap = %v, want segfault", node, err)
			}
			return th.MigrateBack()
		})
	}
}

func TestComputeCoreContention(t *testing.T) {
	params := DefaultParams(1)
	params.CoresPerNode = 2
	var finished time.Duration
	_, _ = runParams(t, params, func(th *Thread) error {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			w, err := th.Spawn(func(wt *Thread) error {
				wt.Compute(1 * time.Millisecond)
				return nil
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			th.Join(w)
		}
		finished = th.Now()
		return nil
	})
	// 4 × 1ms of work on 2 cores needs at least 2ms.
	if finished < 2*time.Millisecond {
		t.Fatalf("4 threads on 2 cores finished in %v", finished)
	}
	if finished > 3*time.Millisecond {
		t.Fatalf("finished in %v, too slow", finished)
	}
}

func TestMemoryBusContention(t *testing.T) {
	params := DefaultParams(1)
	params.MemBandwidth = 1e9 // 1 GB/s
	var finished time.Duration
	_, _ = runParams(t, params, func(th *Thread) error {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			w, err := th.Spawn(func(wt *Thread) error {
				wt.Work(0, 10_000_000) // 10 MB each => 10ms alone
				return nil
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			th.Join(w)
		}
		finished = th.Now()
		return nil
	})
	// 40 MB through a 1 GB/s bus takes 40ms regardless of core count.
	if finished < 40*time.Millisecond {
		t.Fatalf("bus not saturating: finished in %v", finished)
	}
}

func TestEagerVMASyncAblation(t *testing.T) {
	params := DefaultParams(2)
	params.EagerVMASync = true
	_, rep := runParams(t, params, func(th *Thread) error {
		if err := th.Migrate(1); err != nil { // worker exists before mmap
			return err
		}
		if err := th.MigrateBack(); err != nil {
			return err
		}
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "eager")
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
		return th.MigrateBack()
	})
	if rep.VMAQueries != 0 {
		t.Fatalf("VMAQueries = %d with eager sync, want 0", rep.VMAQueries)
	}
}

func TestReportElapsed(t *testing.T) {
	_, rep := run1(t, 1, func(th *Thread) error {
		th.Compute(2 * time.Millisecond)
		return nil
	})
	if rep.Elapsed < 2*time.Millisecond {
		t.Fatalf("Elapsed = %v", rep.Elapsed)
	}
}

func TestThreadErrorPropagates(t *testing.T) {
	m := NewMachine(DefaultParams(1))
	want := errors.New("app failure")
	p := m.NewProcess(0, func(th *Thread) error { return want })
	if err := m.Run(); !errors.Is(err, want) {
		t.Fatalf("Run err = %v", err)
	}
	if !errors.Is(p.Err(), want) {
		t.Fatalf("process err = %v", p.Err())
	}
}

func TestTwoProcessesIsolated(t *testing.T) {
	m := NewMachine(DefaultParams(2))
	var a1, a2 mem.Addr
	p1 := m.NewProcess(0, func(th *Thread) error {
		var err error
		a1, err = th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "p1")
		if err != nil {
			return err
		}
		if err := th.WriteUint64(a1, 111); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		v, err := th.ReadUint64(a1)
		if err != nil || v != 111 {
			t.Errorf("p1 read = %d, %v", v, err)
		}
		return th.MigrateBack()
	})
	p2 := m.NewProcess(0, func(th *Thread) error {
		var err error
		a2, err = th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "p2")
		if err != nil {
			return err
		}
		return th.WriteUint64(a2, 222)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Same virtual addresses, separate address spaces.
	if a1 != a2 {
		t.Logf("note: processes allocated different addresses (%v vs %v)", a1, a2)
	}
	v1, _ := p1.mgr.PageTable(0).Lookup(a1.VPN()), 0
	_ = v1
	if p1.Err() != nil || p2.Err() != nil {
		t.Fatalf("errs: %v, %v", p1.Err(), p2.Err())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Report {
		m := NewMachine(DefaultParams(4))
		p := m.NewProcess(0, func(th *Thread) error {
			addr, err := th.Mmap(8*mem.PageSize, mem.ProtRead|mem.ProtWrite, "x")
			if err != nil {
				return err
			}
			var ws []*Thread
			for i := 1; i < 4; i++ {
				i := i
				w, err := th.Spawn(func(wt *Thread) error {
					if err := wt.Migrate(i); err != nil {
						return err
					}
					for k := 0; k < 20; k++ {
						if _, err := wt.AddUint64(addr, 1); err != nil {
							return err
						}
						wt.Compute(10 * time.Microsecond)
					}
					return wt.MigrateBack()
				})
				if err != nil {
					return err
				}
				ws = append(ws, w)
			}
			for _, w := range ws {
				th.Join(w)
			}
			v, err := th.ReadUint64(addr)
			if err != nil {
				return err
			}
			if v != 60 {
				t.Errorf("counter = %d, want 60", v)
			}
			return nil
		})
		if err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Report()
	}
	r1, r2 := run(), run()
	if r1.Elapsed != r2.Elapsed || r1.DSM != r2.DSM {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", r1.Elapsed, r1.DSM, r2.Elapsed, r2.DSM)
	}
}

func TestPrefetchHint(t *testing.T) {
	const pages = 48
	p, rep := run1(t, 2, func(th *Thread) error {
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "stream")
		if err != nil {
			return err
		}
		for i := 0; i < pages; i++ {
			if err := th.WriteUint64(addr+mem.Addr(i*mem.PageSize), uint64(i)); err != nil {
				return err
			}
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		n, err := th.Prefetch(addr, pages*mem.PageSize)
		if err != nil {
			return err
		}
		if n != pages {
			t.Errorf("prefetched %d pages, want %d", n, pages)
		}
		// Every subsequent read is a local hit, with correct data.
		start := th.Now()
		for i := 0; i < pages; i++ {
			v, err := th.ReadUint64(addr + mem.Addr(i*mem.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i) {
				t.Errorf("page %d holds %d", i, v)
			}
		}
		if scan := th.Now() - start; scan > 200*time.Microsecond {
			t.Errorf("post-prefetch scan took %v; pages not local?", scan)
		}
		// Prefetching again is a cheap no-op.
		n, err = th.Prefetch(addr, pages*mem.PageSize)
		if err != nil {
			return err
		}
		if n != 0 {
			t.Errorf("re-prefetch granted %d pages", n)
		}
		return th.MigrateBack()
	})
	if got := p.mgr.Stats().PrefetchedPages; got != pages {
		t.Fatalf("PrefetchedPages = %d, want %d", got, pages)
	}
	if rep.DSM.ReadFaults != 0 {
		t.Fatalf("ReadFaults = %d after prefetch, want 0", rep.DSM.ReadFaults)
	}
}

// TestPrefetchFasterThanDemandFaults streams 32 pages to node 1 under every
// protocol: with the hint the homes serve the requests concurrently, so the
// stream takes at most half the time of demand faulting them one by one.
func TestPrefetchFasterThanDemandFaults(t *testing.T) {
	const pages = 32
	measure := func(proto dsm.Protocol, prefetch bool) time.Duration {
		var span time.Duration
		params := DefaultParams(2)
		params.DSM.Protocol = proto
		_, _ = runParams(t, params, func(th *Thread) error {
			addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "stream")
			if err != nil {
				return err
			}
			if err := th.Write(addr, make([]byte, pages*mem.PageSize)); err != nil {
				return err
			}
			if err := th.Migrate(1); err != nil {
				return err
			}
			start := th.Now()
			if prefetch {
				if _, err := th.Prefetch(addr, pages*mem.PageSize); err != nil {
					return err
				}
			}
			for i := 0; i < pages; i++ {
				if _, err := th.ReadUint64(addr + mem.Addr(i*mem.PageSize)); err != nil {
					return err
				}
			}
			span = th.Now() - start
			return th.MigrateBack()
		})
		return span
	}
	for _, proto := range []dsm.Protocol{dsm.WriteInvalidate, dsm.HomeMigrate, dsm.DistributedManager} {
		t.Run(proto.String(), func(t *testing.T) {
			demand, hinted := measure(proto, false), measure(proto, true)
			t.Logf("%d pages: demand %v, prefetch %v", pages, demand, hinted)
			if hinted*2 > demand {
				t.Fatalf("prefetch (%v) not at least 2x faster than demand faulting (%v)", hinted, demand)
			}
		})
	}
}

func TestPrefetchSkipsBusyAndInvalid(t *testing.T) {
	_, _ = run1(t, 2, func(th *Thread) error {
		// Unmapped range: segfault, not a grant.
		if _, err := th.Prefetch(0x40, mem.PageSize); !errors.Is(err, ErrSegfault) {
			t.Errorf("prefetch of unmapped range: %v", err)
		}
		// Zero size is a no-op.
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "x")
		if err != nil {
			return err
		}
		n, err := th.Prefetch(addr, 0)
		if err != nil || n != 0 {
			t.Errorf("zero-size prefetch = %d, %v", n, err)
		}
		// At the origin, prefetch is a no-op (everything is local).
		n, err = th.Prefetch(addr, mem.PageSize)
		if err != nil || n != 0 {
			t.Errorf("origin prefetch = %d, %v", n, err)
		}
		return nil
	})
}
