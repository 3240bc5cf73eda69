package futex

import (
	"testing"
	"time"

	"dex/internal/mem"
	"dex/internal/sim"
)

const addr = mem.Addr(0x1000)

func TestWakeFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTable()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		eng.SpawnAfter("waiter", time.Duration(i)*time.Microsecond, func(tk *sim.Task) {
			w := tb.Enqueue(tk, addr)
			w.Block()
			order = append(order, i)
		})
	}
	eng.SpawnAfter("waker", 10*time.Microsecond, func(tk *sim.Task) {
		if n := tb.Wake(addr, 1); n != 1 {
			t.Errorf("first wake woke %d", n)
		}
		tk.Sleep(time.Microsecond)
		if n := tb.Wake(addr, 10); n != 2 {
			t.Errorf("second wake woke %d", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v", order)
	}
	if tb.Waiting(addr) != 0 {
		t.Fatalf("Waiting = %d after all woken", tb.Waiting(addr))
	}
}

func TestWakeEmptyQueue(t *testing.T) {
	tb := NewTable()
	if n := tb.Wake(addr, 5); n != 0 {
		t.Fatalf("Wake on empty queue woke %d", n)
	}
}

func TestWakeDistinctAddresses(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTable()
	wokeA, wokeB := false, false
	eng.Spawn("a", func(tk *sim.Task) {
		w := tb.Enqueue(tk, addr)
		w.Block()
		wokeA = true
	})
	eng.Spawn("b", func(tk *sim.Task) {
		w := tb.Enqueue(tk, addr+mem.PageSize)
		w.Block()
		wokeB = true
	})
	eng.SpawnAfter("waker", time.Microsecond, func(tk *sim.Task) {
		tb.Wake(addr, 10)
		// Other queue deliberately left blocked, then woken later so the
		// engine can drain.
		tk.Sleep(time.Microsecond)
		if wokeB {
			t.Error("waiter on other address woken early")
		}
		tb.Wake(addr+mem.PageSize, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !wokeA || !wokeB {
		t.Fatalf("wokeA=%v wokeB=%v", wokeA, wokeB)
	}
}

func TestSpuriousUnparkAbsorbed(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTable()
	var done bool
	waiter := eng.Spawn("w", func(tk *sim.Task) {
		w := tb.Enqueue(tk, addr)
		w.Block()
		done = true
	})
	eng.SpawnAfter("noise", time.Microsecond, func(tk *sim.Task) {
		waiter.Unpark() // spurious
		tk.Sleep(time.Microsecond)
		if done {
			t.Error("waiter escaped Block on spurious unpark")
		}
		tb.Wake(addr, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("waiter never woken")
	}
}
