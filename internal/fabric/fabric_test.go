package fabric

import (
	"slices"
	"testing"
	"time"

	"dex/internal/sim"
)

type testMsg struct {
	size int
	tag  string
}

func (m testMsg) Size() int { return m.size }

func testParams(nodes int) Params {
	p := DefaultParams(nodes)
	return p
}

func TestSmallMessageDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, testParams(2))
	var gotSrc int
	var gotTag string
	var at time.Duration
	net.SetHandler(1, func(src int, m Message) {
		gotSrc = src
		gotTag = m.(testMsg).tag
		at = eng.Now()
	})
	net.SetHandler(0, func(src int, m Message) {})
	eng.Spawn("sender", func(tk *sim.Task) {
		net.Send(tk, 0, 1, testMsg{size: 64, tag: "hello"})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotSrc != 0 || gotTag != "hello" {
		t.Fatalf("delivery src=%d tag=%q", gotSrc, gotTag)
	}
	p := testParams(2)
	min := sendCPU + LinkLatency + p.RecvCPU
	if at < min {
		t.Fatalf("delivered at %v, want >= %v", at, min)
	}
	if at > min+2*time.Microsecond {
		t.Fatalf("delivered at %v, implausibly late (min %v)", at, min)
	}
	st := net.Stats()
	if st.SmallSends != 1 || st.SmallBytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerConnectionFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, testParams(2))
	var got []string
	net.SetHandler(1, func(src int, m Message) { got = append(got, m.(testMsg).tag) })
	eng.Spawn("sender", func(tk *sim.Task) {
		for _, tag := range []string{"a", "b", "c", "d"} {
			net.Send(tk, 0, 1, testMsg{size: 64, tag: tag})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestSendPoolBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.SendPoolChunks = 2
	p.LinkBandwidth = 1e6 // slow link keeps chunks held long
	net := New(eng, p)
	net.SetHandler(1, func(src int, m Message) {})
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < 6; i++ {
			net.Send(tk, 0, 1, testMsg{size: 1024})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.Stats().SendPoolWaits == 0 {
		t.Fatal("expected send-pool waits on a slow link with 2 chunks")
	}
	if net.Stats().SmallSends != 6 {
		t.Fatalf("SmallSends = %d, want 6", net.Stats().SmallSends)
	}
}

// A send's chunks come back to the pool at its completion time without an
// event: after a burst within the pool nothing but the deliveries is queued,
// and a second burst a while later finds the whole pool again.
func TestSendChunksReturnWithoutEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.CountEventKinds()
	p := testParams(2)
	net := New(eng, p)
	net.SetHandler(1, func(src int, m Message) {})
	c := net.conn(0, 1)
	eng.Spawn("sender", func(tk *sim.Task) {
		for burst := 0; burst < 2; burst++ {
			for i := 0; i < p.SendPoolChunks; i++ {
				net.Send(tk, 0, 1, testMsg{size: 3000})
			}
			if len(c.sent) == 0 {
				t.Errorf("burst %d: no completion is noted on the connection", burst)
			}
			tk.Sleep(time.Millisecond)
		}
		c.reapSent(tk.Now())
		for i := 0; i < p.SendPoolChunks; i++ {
			if !c.sendPool.TryAcquire() {
				t.Errorf("%d of %d chunks came back to the pool", i, p.SendPoolChunks)
				break
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w := net.Stats().SendPoolWaits; w != 0 {
		t.Errorf("SendPoolWaits = %d within the pool, want 0", w)
	}
	for _, r := range eng.SchedStats().Census.Runners {
		if r.Name != "fabric.flight" {
			t.Errorf("%d events ran %s; want nothing but the flights queued", r.Events, r.Name)
		}
	}
}

// Two senders contend for a pool of three chunks on a slow link, one of them
// with two-chunk messages: each is handed a chunk at the earliest completion,
// so every Send returns, and every message arrives, when it did while each
// completion was an event of its own.
func TestSendPoolContendedTimes(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.SendPoolChunks = 3
	p.LinkBandwidth = 1e6
	net := New(eng, p)
	var returned, arrived []time.Duration
	net.SetHandler(1, func(src int, m Message) { arrived = append(arrived, eng.Now()) })
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < 6; i++ {
			net.Send(tk, 0, 1, testMsg{size: 1024})
			returned = append(returned, tk.Now())
		}
	})
	eng.Spawn("sender2", func(tk *sim.Task) {
		tk.Sleep(1500 * time.Microsecond)
		for i := 0; i < 3; i++ {
			net.Send(tk, 0, 1, testMsg{size: 8000})
			returned = append(returned, tk.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantReturned := []time.Duration{700, 1400, 2100, 1024700, 2048700, 4096700, 5120700, 14144700, 22144700}
	wantArrived := []time.Duration{1029200, 2053200, 3077200, 4101200, 5125200, 6149200, 14149200, 22149200, 30149200}
	if !slices.Equal(returned, wantReturned) || !slices.Equal(arrived, wantArrived) {
		t.Errorf("sends returned at %v and arrived at %v,\nwant          %v and            %v", returned, arrived, wantReturned, wantArrived)
	}
	if w := net.Stats().SendPoolWaits; w != 8 {
		t.Errorf("SendPoolWaits = %d, want 8", w)
	}
}

func TestReceiverNotReadyStall(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.RecvPoolSlots = 1
	p.RecvCPU = 100 * time.Microsecond // buffer held a long time
	net := New(eng, p)
	count := 0
	net.SetHandler(1, func(src int, m Message) { count++ })
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			net.Send(tk, 0, 1, testMsg{size: 64})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 4 {
		t.Fatalf("delivered %d, want 4", count)
	}
	if net.Stats().RecvRNRStalls == 0 {
		t.Fatal("expected RNR stalls with 1 posted receive")
	}
}

// fetchOnce models the DSM request/response pattern: a requester on node 1
// prepares a landing zone, asks node 0, node 0 sends the page, requester
// claims the data. It returns the virtual duration and the data.
func fetchOnce(t *testing.T, mode PageMode, withData bool) (time.Duration, []byte, Stats) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.Mode = mode
	net := New(eng, p)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	var pr *PageRecv
	var requester *sim.Task
	var got []byte
	var elapsed time.Duration
	replied := false

	net.SetHandler(0, func(src int, m Message) {
		// Origin: serve the page (or an ownership-only grant).
		eng.Spawn("origin-handler", func(tk *sim.Task) {
			if withData {
				net.SendPage(tk, 0, 1, pr, page, testMsg{size: 48, tag: "reply"})
			} else {
				net.Send(tk, 0, 1, testMsg{size: 48, tag: "grant"})
			}
		})
	})
	net.SetHandler(1, func(src int, m Message) {
		replied = true
		requester.Unpark()
	})

	requester = eng.Spawn("requester", func(tk *sim.Task) {
		start := tk.Now()
		pr = net.PreparePageRecv(tk, 0, 1)
		net.Send(tk, 1, 0, testMsg{size: 64, tag: "request"})
		for !replied {
			tk.Park("awaiting page reply")
		}
		if withData {
			got = pr.Claim(tk)
		} else {
			pr.Release()
		}
		elapsed = tk.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return elapsed, got, net.Stats()
}

func TestPageFetchHybrid(t *testing.T) {
	elapsed, got, st := fetchOnce(t, HybridSink, true)
	if len(got) != 4096 || got[100] != 100 {
		t.Fatalf("bad page data (len %d)", len(got))
	}
	if st.RDMAWrites != 1 || st.PageSends != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MemcpyBytes != 4096 {
		t.Fatalf("MemcpyBytes = %d, want one sink copy", st.MemcpyBytes)
	}
	// End-to-end raw transport for a 4 KB page should be single-digit µs;
	// the paper's 13.6µs includes protocol software costs layered above.
	if elapsed < 3*time.Microsecond || elapsed > 15*time.Microsecond {
		t.Fatalf("hybrid fetch = %v, want 3µs..15µs", elapsed)
	}
}

func TestPageFetchPerPageRegistrationSlower(t *testing.T) {
	hy, _, _ := fetchOnce(t, HybridSink, true)
	pp, got, st := fetchOnce(t, PerPageReg, true)
	if len(got) != 4096 {
		t.Fatal("bad page data")
	}
	if st.Registrations != 1 {
		t.Fatalf("Registrations = %d, want 1", st.Registrations)
	}
	if st.MemcpyBytes != 0 {
		t.Fatalf("PerPageReg should be zero-copy, MemcpyBytes = %d", st.MemcpyBytes)
	}
	if pp <= hy {
		t.Fatalf("per-page registration (%v) should be slower than hybrid (%v)", pp, hy)
	}
}

func TestPageFetchVerbOnly(t *testing.T) {
	vo, got, st := fetchOnce(t, VerbOnly, true)
	if len(got) != 4096 || got[4095] != byte(4095%256) {
		t.Fatal("bad page data")
	}
	if st.RDMAWrites != 0 {
		t.Fatalf("VerbOnly must not RDMA, stats = %+v", st)
	}
	if st.MemcpyBytes != 8192 {
		t.Fatalf("VerbOnly should copy on both sides, MemcpyBytes = %d", st.MemcpyBytes)
	}
	hy, _, _ := fetchOnce(t, HybridSink, true)
	if vo <= hy {
		t.Fatalf("verb-only (%v) should be slower than hybrid (%v)", vo, hy)
	}
}

func TestOwnershipOnlyGrantReleasesSink(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.SinkChunks = 1
	net := New(eng, p)
	net.SetHandler(0, func(src int, m Message) {})
	net.SetHandler(1, func(src int, m Message) {})
	eng.Spawn("requester", func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			pr := net.PreparePageRecv(tk, 0, 1)
			pr.Release()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v (sink chunk leak?)", err)
	}
	if net.Stats().SinkWaits != 0 {
		t.Fatalf("SinkWaits = %d, want 0 after releases", net.Stats().SinkWaits)
	}
}

func TestSinkExhaustionBlocks(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams(2)
	p.SinkChunks = 1
	net := New(eng, p)
	net.SetHandler(0, func(src int, m Message) {})
	net.SetHandler(1, func(src int, m Message) {})
	var first *PageRecv
	eng.Spawn("a", func(tk *sim.Task) {
		first = net.PreparePageRecv(tk, 0, 1)
	})
	eng.Spawn("b", func(tk *sim.Task) {
		tk.Sleep(time.Microsecond)
		pr := net.PreparePageRecv(tk, 0, 1) // blocks until first released
		pr.Release()
	})
	eng.Spawn("releaser", func(tk *sim.Task) {
		tk.Sleep(10 * time.Microsecond)
		first.Release()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.Stats().SinkWaits != 1 {
		t.Fatalf("SinkWaits = %d, want 1", net.Stats().SinkWaits)
	}
}

func TestPageRecvReuseIsRejected(t *testing.T) {
	_, _, _ = fetchOnce(t, HybridSink, true) // sanity: normal path works
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on PageRecv reuse")
		}
	}()
	pr := &PageRecv{used: true}
	pr.Claim(nil)
}

func TestSelfSendPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, testParams(2))
	eng.Spawn("bad", func(tk *sim.Task) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on self-send")
			}
			panic("stop") // abort the task cleanly for the engine
		}()
		net.Send(tk, 0, 0, testMsg{size: 8})
	})
	_ = eng.Run() // the re-panic surfaces as a task failure; ignore it
}

func TestCrossPairIsolation(t *testing.T) {
	// Traffic between nodes 0->1 must not delay traffic 2->3.
	eng := sim.NewEngine(1)
	p := testParams(4)
	p.LinkBandwidth = 1e6 // make serialization visible
	net := New(eng, p)
	var at01, at23 time.Duration
	net.SetHandler(1, func(src int, m Message) { at01 = eng.Now() })
	net.SetHandler(3, func(src int, m Message) { at23 = eng.Now() })
	eng.Spawn("s0", func(tk *sim.Task) {
		net.Send(tk, 0, 1, testMsg{size: 100000}) // 100ms serialization
	})
	eng.Spawn("s2", func(tk *sim.Task) {
		net.Send(tk, 2, 3, testMsg{size: 100})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at23 >= at01 {
		t.Fatalf("independent pair delayed: 2->3 at %v, 0->1 at %v", at23, at01)
	}
}
