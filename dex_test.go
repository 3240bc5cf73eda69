package dex

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	cluster := NewCluster(4)
	report, err := cluster.Run(func(th *Thread) error {
		addr, err := th.Mmap(PageSize, ProtRead|ProtWrite, "counter")
		if err != nil {
			return err
		}
		var ws []*Thread
		for i := 1; i < 4; i++ {
			i := i
			w, err := th.Spawn(func(w *Thread) error {
				if err := w.Migrate(i); err != nil {
					return err
				}
				if _, err := w.AddUint64(addr, uint64(i)); err != nil {
					return err
				}
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
		v, err := th.ReadUint64(addr)
		if err != nil {
			return err
		}
		if v != 6 {
			t.Errorf("counter = %d, want 6", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Migrations != 6 {
		t.Fatalf("Migrations = %d, want 6", report.Migrations)
	}
	if report.Elapsed <= 0 {
		t.Fatal("empty report")
	}
}

func TestOptions(t *testing.T) {
	cluster := NewCluster(2, WithCoresPerNode(2), WithSeed(7), WithMemBandwidth(1e9))
	if cluster.Nodes() != 2 {
		t.Fatalf("Nodes = %d", cluster.Nodes())
	}
	if got := cluster.Machine().Params().CoresPerNode; got != 2 {
		t.Fatalf("CoresPerNode = %d", got)
	}
	if !strings.Contains(cluster.String(), "nodes: 2") {
		t.Fatalf("String = %q", cluster.String())
	}
}

func TestTraceIntegration(t *testing.T) {
	rec := NewFaultRecorder()
	cluster := NewCluster(2, WithObserver(rec))
	p := cluster.Start(func(th *Thread) error {
		addr, err := th.Mmap(PageSize, ProtRead|ProtWrite, "hot-object")
		if err != nil {
			return err
		}
		th.SetSite("test/init")
		if err := th.WriteUint64(addr, 1); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		th.SetSite("test/remote")
		_, err = th.ReadUint64(addr)
		if err != nil {
			return err
		}
		return th.MigrateBack()
	})
	if err := cluster.Wait(); err != nil {
		t.Fatal(err)
	}
	tr := ProfileOf(rec)
	tr.SetRegions(p.Report().Regions)
	if tr.Len() == 0 {
		t.Fatal("no events traced")
	}
	regions := tr.TopRegions(5)
	found := false
	for _, r := range regions {
		if r.Key == "hot-object" {
			found = true
		}
	}
	if !found {
		t.Fatalf("labeler did not resolve hot-object: %+v", regions)
	}
}

func TestMutexCrossNode(t *testing.T) {
	cluster := NewCluster(3)
	_, err := cluster.Run(func(th *Thread) error {
		mu, err := NewMutex(th)
		if err != nil {
			return err
		}
		data, err := th.Mmap(PageSize, ProtRead|ProtWrite, "protected")
		if err != nil {
			return err
		}
		const perThread = 10
		var ws []*Thread
		for i := 1; i < 3; i++ {
			i := i
			w, err := th.Spawn(func(w *Thread) error {
				if err := w.Migrate(i); err != nil {
					return err
				}
				for k := 0; k < perThread; k++ {
					if err := mu.Lock(w); err != nil {
						return err
					}
					// Non-atomic read-modify-write protected by the lock.
					v, err := w.ReadUint64(data)
					if err != nil {
						return err
					}
					w.Compute(5 * time.Microsecond)
					if err := w.WriteUint64(data, v+1); err != nil {
						return err
					}
					if err := mu.Unlock(w); err != nil {
						return err
					}
				}
				return w.MigrateBack()
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for k := 0; k < perThread; k++ {
			if err := mu.Lock(th); err != nil {
				return err
			}
			v, err := th.ReadUint64(data)
			if err != nil {
				return err
			}
			th.Compute(5 * time.Microsecond)
			if err := th.WriteUint64(data, v+1); err != nil {
				return err
			}
			if err := mu.Unlock(th); err != nil {
				return err
			}
		}
		for _, w := range ws {
			th.Join(w)
		}
		v, err := th.ReadUint64(data)
		if err != nil {
			return err
		}
		if v != 3*perThread {
			t.Errorf("counter = %d, want %d", v, 3*perThread)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockUnlocked(t *testing.T) {
	cluster := NewCluster(1)
	_, err := cluster.Run(func(th *Thread) error {
		mu, err := NewMutex(th)
		if err != nil {
			return err
		}
		if err := mu.Unlock(th); err == nil {
			t.Error("unlock of unlocked mutex succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierRounds(t *testing.T) {
	cluster := NewCluster(4)
	_, err := cluster.Run(func(th *Thread) error {
		const workers = 3
		const rounds = 4
		bar, err := NewBarrier(th, workers)
		if err != nil {
			return err
		}
		slots, err := th.Mmap(uint64(workers)*PageSize, ProtRead|ProtWrite, "rounds")
		if err != nil {
			return err
		}
		var ws []*Thread
		for i := 0; i < workers; i++ {
			i := i
			w, err := th.Spawn(func(w *Thread) error {
				if err := w.Migrate(1 + i); err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					if err := w.WriteUint64(slots+Addr(i*PageSize), uint64(r)); err != nil {
						return err
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
					// After the barrier every worker must be in round r.
					for j := 0; j < workers; j++ {
						v, err := w.ReadUint64(slots + Addr(j*PageSize))
						if err != nil {
							return err
						}
						if v < uint64(r) {
							t.Errorf("round %d: worker %d saw stale round %d from worker %d", r, i, v, j)
						}
					}
					if err := bar.Wait(w); err != nil { // close the round
						return err
					}
				}
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
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierValidation(t *testing.T) {
	cluster := NewCluster(1)
	_, err := cluster.Run(func(th *Thread) error {
		if _, err := NewBarrier(th, 0); err == nil {
			t.Error("NewBarrier(0) accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrReexports(t *testing.T) {
	cluster := NewCluster(1)
	_, err := cluster.Run(func(th *Thread) error {
		if err := th.Read(0x10, make([]byte, 1)); !errors.Is(err, ErrSegfault) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
