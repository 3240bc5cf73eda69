package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"dex/internal/sim"
)

func TestChunksForBoundaries(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, testParams(2))
	tests := []struct {
		size, want int
	}{
		{0, 1}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {8193, 3},
	}
	for _, tt := range tests {
		if got := net.chunksFor(tt.size); got != tt.want {
			t.Errorf("chunksFor(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestPageThenSmallStaysOrdered(t *testing.T) {
	// A small message posted right after a page transfer on the same
	// connection must be handled after the page data has landed.
	eng := sim.NewEngine(1)
	net := New(eng, testParams(2))
	var pr *PageRecv
	var order []string
	var requester *sim.Task
	net.SetHandler(0, func(src int, m Message) {
		eng.Spawn("serve", func(tk *sim.Task) {
			page := make([]byte, 4096)
			net.SendPage(tk, 0, 1, pr, page, testMsg{tag: "page-reply", size: 48})
			net.Send(tk, 0, 1, testMsg{tag: "later", size: 32})
		})
	})
	net.SetHandler(1, func(src int, m Message) {
		tag := m.(testMsg).tag
		if tag == "page-reply" && pr.data == nil {
			t.Error("reply handled before page data landed")
		}
		order = append(order, tag)
		requester.Unpark()
	})
	requester = eng.Spawn("req", func(tk *sim.Task) {
		pr = net.PreparePageRecv(tk, 0, 1)
		net.Send(tk, 1, 0, testMsg{tag: "request", size: 64})
		for len(order) < 2 {
			tk.Park("replies")
		}
		pr.Claim(tk)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[0] != "page-reply" || order[1] != "later" {
		t.Fatalf("order = %v", order)
	}
}

func TestRNRDrainPreservesFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.RecvPoolSlots = 1
	p.RecvCPU = 50 * time.Microsecond
	net := New(eng, p)
	var got []string
	net.SetHandler(1, func(src int, m Message) { got = append(got, m.(testMsg).tag) })
	eng.Spawn("s", func(tk *sim.Task) {
		for _, tag := range []string{"a", "b", "c", "d", "e"} {
			net.Send(tk, 0, 1, testMsg{size: 32, tag: tag})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c", "d", "e"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RNR drain reordered: %v", got)
		}
	}
}

func TestVerbOnlyLargeMessageConsumesChunks(t *testing.T) {
	_, _, hyStats := fetchOnce(t, HybridSink, true)
	if hyStats.SendPoolWaits != 0 {
		t.Fatalf("hybrid consumed send chunks for page data: %+v", hyStats)
	}
	_, _, voStats := fetchOnce(t, VerbOnly, true)
	// Verb-only pushes the page through the small-message path: it pays the
	// staging copies the hybrid sink avoids on the send side, but the page
	// payload stays under PageBytes — small-message accounting is identical
	// across modes (no double count).
	if voStats.MemcpyBytes <= hyStats.MemcpyBytes {
		t.Fatalf("verb-only memcpy bytes %d not larger than hybrid %d",
			voStats.MemcpyBytes, hyStats.MemcpyBytes)
	}
	if voStats.SmallBytes != hyStats.SmallBytes {
		t.Fatalf("small-message bytes differ across modes: verb-only %d, hybrid %d",
			voStats.SmallBytes, hyStats.SmallBytes)
	}
	if voStats.PageBytes != hyStats.PageBytes {
		t.Fatalf("page bytes differ across modes: verb-only %d, hybrid %d",
			voStats.PageBytes, hyStats.PageBytes)
	}
}

func TestPageRecvDoubleReleaseIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.SinkChunks = 1
	net := New(eng, p)
	eng.Spawn("r", func(tk *sim.Task) {
		pr := net.PreparePageRecv(tk, 0, 1)
		pr.Release()
		pr.Release() // second release must not double-free the sink chunk
		pr2 := net.PreparePageRecv(tk, 0, 1)
		pr2.Release()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestQuickBusInvariants property-tests the bus: completion times are
// monotone in submission order and total busy time equals the sum of
// individual durations.
func TestQuickBusInvariants(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		eng := sim.NewEngine(1)
		var bus sim.Bus
		bus.Init(eng, sim.ReasonNum("bus", 0), 1e9)
		var last time.Duration
		total := uint64(0)
		ok := true
		eng.Spawn("driver", func(tk *sim.Task) {
			for _, s := range sizes {
				n := int(s)
				finish := bus.Occupy(n)
				if finish < last {
					ok = false
				}
				if n > 0 {
					last = finish
				}
				total += uint64(n)
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok && bus.Bytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSemaphoreNeverOversubscribed property-tests the FIFO semaphore
// under random hold times.
func TestQuickSemaphoreNeverOversubscribed(t *testing.T) {
	f := func(holds []uint8, units uint8) bool {
		n := int(units%4) + 1
		eng := sim.NewEngine(1)
		var sem sim.Semaphore
		sem.Init(sim.ReasonNum("semaphore s", 0), n)
		inUse, maxUse := 0, 0
		for _, h := range holds {
			h := h
			eng.Spawn("w", func(tk *sim.Task) {
				sem.Acquire(tk)
				inUse++
				if inUse > maxUse {
					maxUse = inUse
				}
				tk.Sleep(time.Duration(h) * time.Microsecond)
				inUse--
				sem.Release()
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		free := 0
		for sem.Waiting() == 0 && sem.TryAcquire() {
			free++
		}
		return maxUse <= n && free == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
