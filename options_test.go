package dex

import (
	"testing"
	"time"

	"dex/internal/core"
	"dex/internal/fabric"
)

// TestWithPageTransferMode runs one workload with each page-transfer mode of
// the messaging layer (§III-E) set in the cluster's parameters, the way the
// experiment harness sets it.
func TestWithPageTransferMode(t *testing.T) {
	run := func(mode fabric.PageMode) Report {
		cluster := NewCluster(2, optionFunc(func(p *core.Params) { p.Fabric.Mode = mode }))
		rep, err := cluster.Run(func(th *Thread) error {
			addr, err := th.Mmap(16*PageSize, ProtRead|ProtWrite, "d")
			if err != nil {
				return err
			}
			if err := th.Write(addr, make([]byte, 16*PageSize)); err != nil {
				return err
			}
			if err := th.Migrate(1); err != nil {
				return err
			}
			if err := th.Read(addr, make([]byte, 16*PageSize)); err != nil {
				return err
			}
			return th.MigrateBack()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hybrid := run(fabric.HybridSink)
	perpage := run(fabric.PerPageReg)
	verb := run(fabric.VerbOnly)
	if hybrid.Net.RDMAWrites == 0 || perpage.Net.Registrations == 0 {
		t.Fatalf("modes not applied: %+v / %+v", hybrid.Net, perpage.Net)
	}
	if verb.Net.RDMAWrites != 0 {
		t.Fatalf("verb-only used RDMA: %+v", verb.Net)
	}
	if hybrid.Elapsed >= perpage.Elapsed {
		t.Fatalf("hybrid (%v) not faster than per-page registration (%v)", hybrid.Elapsed, perpage.Elapsed)
	}
}

// TestStartAtAndElapsed starts a process at a node other than 0.
func TestStartAtAndElapsed(t *testing.T) {
	cluster := NewCluster(3)
	p := cluster.Machine().NewProcess(2, func(th *Thread) error {
		if th.Node() != 2 {
			t.Errorf("origin node = %d", th.Node())
		}
		th.Compute(time.Millisecond)
		return nil
	})
	if err := cluster.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Origin() != 2 {
		t.Fatalf("Origin = %d", p.Origin())
	}
	if cluster.Elapsed() < time.Millisecond {
		t.Fatalf("Elapsed = %v", cluster.Elapsed())
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) time.Duration {
		cluster := NewCluster(2, WithSeed(seed))
		rep, err := cluster.Run(func(th *Thread) error {
			addr, err := th.Mmap(PageSize, ProtRead|ProtWrite, "c")
			if err != nil {
				return err
			}
			var ws []*Thread
			for i := 0; i < 4; i++ {
				w, err := th.Spawn(func(w *Thread) error {
					if err := w.Migrate(1); err != nil {
						return err
					}
					for k := 0; k < 30; k++ {
						v, err := w.ReadUint64(addr)
						if err != nil {
							return err
						}
						if err := w.WriteUint64(addr, v+1); err != nil {
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
			for k := 0; k < 30; k++ {
				if _, err := th.AddUint64(addr, 1); err != nil {
					return err
				}
				th.Compute(3 * time.Microsecond)
			}
			for _, w := range ws {
				th.Join(w)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	// Same seed reproduces exactly; a different seed perturbs backoff
	// jitter and therefore the contended schedule.
	if run(3) != run(3) {
		t.Fatal("same seed diverged")
	}
	if run(3) == run(4) {
		t.Log("note: different seeds coincidentally matched (allowed but unlikely)")
	}
}
