package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestSemaphoreHandOffOrderUnderSpuriousWakes is the regression test for the
// ring-buffer wait queue: with a storm of stray Unpark tokens landing on
// queued waiters, hand-off order must stay strictly FIFO and no waiter may
// slip past the queue by consuming a spurious token. Before the ring-buffer
// rewrite this guarantee rested on a linear membership scan; the O(1)
// Task.waitingSem marker must preserve it exactly.
// newSemaphore and newBus make a semaphore and a bus named name.
func newSemaphore(name string, n int) *Semaphore {
	s := new(Semaphore)
	s.Init(Reason{text: "semaphore " + name}, n)
	return s
}

func newBus(eng *Engine, name string, bytesPerSecond float64) *Bus {
	b := new(Bus)
	b.Init(eng, Reason{text: name}, bytesPerSecond)
	return b
}

func TestSemaphoreHandOffOrderUnderSpuriousWakes(t *testing.T) {
	const waiters = 12 // > initial ring capacity, forces growth mid-queue
	e := NewEngine(1)
	sem := newSemaphore("s", 1)
	var order []int
	inUse := 0

	e.Spawn("holder", func(tk *Task) {
		sem.Acquire(tk)
		tk.Sleep(100 * time.Microsecond) // everyone queues behind this
		sem.Release()
	})
	tasks := make([]*Task, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		tasks[i] = e.SpawnAfter(fmt.Sprintf("w%d", i), time.Duration(i+1)*time.Microsecond, func(tk *Task) {
			sem.Acquire(tk)
			inUse++
			if inUse > 1 {
				t.Errorf("waiter %d acquired while a unit was already held", i)
			}
			order = append(order, i)
			tk.Sleep(5 * time.Microsecond)
			inUse--
			sem.Release()
		})
	}
	// Hammer every queued waiter with spurious unparks, both while the
	// holder still owns the unit and while hand-offs are in progress.
	for round := 0; round < 30; round++ {
		at := time.Duration(3+round*7) * time.Microsecond
		for i := range tasks {
			i := i
			e.After(at, func() { tasks[i].Unpark() })
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != waiters {
		t.Fatalf("acquisitions = %d, want %d", len(order), waiters)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("hand-off order = %v, want strict arrival order", order)
		}
	}
	if sem.avail != sem.total || sem.Waiting() != 0 {
		t.Fatalf("free=%d of %d, Waiting=%d after drain", sem.avail, sem.total, sem.Waiting())
	}
}

// TestSemaphoreRingWrapAround drives the wait queue through many
// push/pop cycles so head wraps the ring repeatedly, with the queue depth
// oscillating across the growth boundary.
func TestSemaphoreRingWrapAround(t *testing.T) {
	e := NewEngine(7)
	sem := newSemaphore("s", 2)
	const tasks = 9
	const rounds = 8
	var order []int
	want := make([]int, 0, tasks*rounds)

	for i := 0; i < tasks; i++ {
		i := i
		e.SpawnAfter(fmt.Sprintf("t%d", i), time.Duration(i)*time.Microsecond, func(tk *Task) {
			for r := 0; r < rounds; r++ {
				sem.Acquire(tk)
				order = append(order, i)
				tk.Sleep(time.Duration(tasks) * time.Microsecond)
				sem.Release()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With identical hold times and staggered arrivals, FIFO hand-off means
	// each round grants in the same rotation.
	for r := 0; r < rounds; r++ {
		for i := 0; i < tasks; i++ {
			want = append(want, i)
		}
	}
	if len(order) != len(want) {
		t.Fatalf("acquisitions = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation broke at %d: got %v", i, order[:i+1])
		}
	}
}
