package dex

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dex/internal/sim"
)

// Failure-path tests: a thread erroring at a remote node must not wedge the
// cluster — workers shut down, joiners wake, and the error surfaces. Where
// an application bug genuinely deadlocks its own threads, the simulator's
// deadlock detector must report it instead of hanging.

func TestRemoteThreadErrorTearsDownCleanly(t *testing.T) {
	boom := errors.New("remote failure")
	cluster := NewCluster(3)
	joined := false
	_, err := cluster.Run(func(th *Thread) error {
		w, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(2); err != nil {
				return err
			}
			w.Compute(time.Millisecond)
			return boom // dies at the remote; never migrates back
		})
		if err != nil {
			return err
		}
		th.Join(w)
		joined = true
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the remote failure", err)
	}
	if !joined {
		t.Fatal("Join never returned after the remote thread died")
	}
}

func TestFirstErrorWinsAcrossThreads(t *testing.T) {
	first := errors.New("first")
	second := errors.New("second")
	cluster := NewCluster(2)
	_, err := cluster.Run(func(th *Thread) error {
		a, err := th.Spawn(func(w *Thread) error {
			w.Compute(time.Millisecond)
			return first
		})
		if err != nil {
			return err
		}
		b, err := th.Spawn(func(w *Thread) error {
			w.Compute(2 * time.Millisecond)
			return second
		})
		if err != nil {
			return err
		}
		th.Join(a)
		th.Join(b)
		return nil
	})
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Fatalf("err = %v, want only the first failure", err)
	}
}

func TestAbandonedBarrierIsReportedAsDeadlock(t *testing.T) {
	// A thread that errors out before reaching a barrier strands its
	// peers; the engine must report a deadlock naming the futex wait
	// rather than hanging forever.
	cluster := NewCluster(2)
	_, err := cluster.Run(func(th *Thread) error {
		bar, err := NewBarrier(th, 3)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := th.Spawn(func(w *Thread) error {
				return bar.Wait(w) // the third participant never arrives
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("stranded barrier did not surface")
	}
	if !strings.Contains(err.Error(), "futex") {
		t.Fatalf("deadlock report does not name the futex wait: %v", err)
	}
}

func TestThreadErrorLeadsTheEventLimit(t *testing.T) {
	// A thread that fails can leave the rest of the process spinning until
	// the event limit stops the run — a crash-in-flight migration does this
	// to every app but ep and blk. The thread's error is the cause: Run names
	// it first, on one line, and errors.Is still finds the limit behind it.
	boom := errors.New("migration failed")
	cluster := NewCluster(2, WithEventLimit(10_000))
	_, err := cluster.Run(func(th *Thread) error {
		if _, err := th.Spawn(func(*Thread) error { return boom }); err != nil {
			return err
		}
		for { // waits for a peer the failure took away
			th.Compute(time.Microsecond)
		}
	})
	if !errors.Is(err, boom) || !errors.Is(err, sim.ErrEventLimit) {
		t.Fatalf("err = %v, want the thread's failure and the event limit", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "thread 1: migration failed; ") || strings.Contains(msg, "\n") {
		t.Fatalf("err = %q, want one line that starts with the thread's failure", msg)
	}
}

func TestErrorDuringHeavyProtocolTraffic(t *testing.T) {
	// An error thrown while other threads are mid-fault: everything must
	// still drain (in-flight protocol transactions complete, workers
	// stop).
	boom := errors.New("mid-traffic failure")
	cluster := NewCluster(4)
	_, err := cluster.Run(func(th *Thread) error {
		addr, err := th.Mmap(PageSize, ProtRead|ProtWrite, "hot")
		if err != nil {
			return err
		}
		var ws []*Thread
		for i := 0; i < 6; i++ {
			i := i
			w, err := th.Spawn(func(w *Thread) error {
				if err := w.Migrate(1 + i%3); err != nil {
					return err
				}
				for k := 0; k < 50; k++ {
					if _, err := w.AddUint64(addr, 1); err != nil {
						return err
					}
					w.Compute(5 * time.Microsecond)
					if i == 0 && k == 20 {
						return boom
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
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
