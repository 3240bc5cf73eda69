package fabric

import (
	"fmt"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// expMsg is an expendable (droppable/duplicable) test message.
type expMsg struct {
	size int
	seq  int
}

func (m expMsg) Size() int        { return m.size }
func (m expMsg) ChaosExpendable() {}

func chaosNet(t *testing.T, nodes int, plan *chaos.Plan) (*sim.Engine, *Network, *chaos.Injector) {
	t.Helper()
	if err := plan.Validate(nodes); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, testParams(nodes))
	inj := chaos.NewInjector(plan, nodes)
	net.SetChaos(inj)
	return eng, net, inj
}

// Under certain duplication, every message arrives twice, per-connection
// order is preserved among the surviving stream (a dup follows its original
// immediately), and the small-byte accounting still reflects sender-side
// sends only.
func TestChaosDuplicationKeepsOrderAndAccounting(t *testing.T) {
	plan := &chaos.Plan{Seed: 3, Dup: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}}}
	eng, net, inj := chaosNet(t, 2, plan)
	const msgs = 16
	var got []int
	net.SetHandler(1, func(src int, m Message) { got = append(got, m.(expMsg).seq) })
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < msgs; i++ {
			net.Send(tk, 0, 1, expMsg{size: 64, seq: i})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2*msgs {
		t.Fatalf("delivered %d messages, want %d (each duplicated)", len(got), 2*msgs)
	}
	for i, seq := range got {
		if seq != i/2 {
			t.Fatalf("delivery order broken at %d: %v", i, got)
		}
	}
	st := net.Stats()
	if st.SmallSends != msgs || st.SmallBytes != msgs*64 {
		t.Fatalf("sender-side accounting changed by dup: %+v", st)
	}
	if inj.Stats().Duplicated != msgs {
		t.Fatalf("Duplicated = %d, want %d", inj.Stats().Duplicated, msgs)
	}
}

// Delay jitter may reorder nothing: the per-connection FIFO clamp must keep
// delivery order identical to send order even when every message draws a
// random extra latency.
func TestChaosDelayPreservesPerConnectionOrder(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 7,
		Delay: []chaos.DelayRule{{
			Src: chaos.Any, Dst: chaos.Any, Prob: 1,
			Jitter: chaos.Duration(200 * time.Microsecond),
		}},
	}
	eng, net, _ := chaosNet(t, 3, plan)
	const msgs = 32
	var got []int
	net.SetHandler(1, func(src int, m Message) { got = append(got, m.(expMsg).seq) })
	net.SetHandler(2, func(src int, m Message) {})
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < msgs; i++ {
			net.Send(tk, 0, 1, expMsg{size: 64, seq: i})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d, want %d (delay must not lose messages)", len(got), msgs)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("jitter reordered connection stream: %v", got)
		}
	}
}

// Byte conservation under drops: every byte the sender pushed is either
// delivered to a handler or counted in the injector's dropped-bytes ledger.
func TestChaosDropByteConservation(t *testing.T) {
	plan := &chaos.Plan{Seed: 11, Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.4}}}
	eng, net, inj := chaosNet(t, 2, plan)
	var deliveredBytes uint64
	var delivered int
	net.SetHandler(1, func(src int, m Message) {
		deliveredBytes += uint64(m.Size())
		delivered++
	})
	const msgs = 64
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < msgs; i++ {
			net.Send(tk, 0, 1, expMsg{size: 100 + i, seq: i})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := net.Stats()
	cs := inj.Stats()
	if cs.Dropped == 0 || uint64(delivered) != msgs-cs.Dropped {
		t.Fatalf("delivered %d of %d with %d drops", delivered, msgs, cs.Dropped)
	}
	if deliveredBytes+cs.DroppedBytes != st.SmallBytes {
		t.Fatalf("bytes not conserved: delivered %d + dropped %d != sent %d",
			deliveredBytes, cs.DroppedBytes, st.SmallBytes)
	}
}

// Page transfers fate-share one verdict: with a certain drop rule, neither
// the data placement nor its reply arrives; with duplication both arrive
// twice and the reply still follows its data.
func TestChaosPageUnitFateSharing(t *testing.T) {
	for _, mode := range []PageMode{HybridSink, PerPageReg, VerbOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			plan := &chaos.Plan{Seed: 5, Drop: []chaos.LinkRule{{
				Src: chaos.Any, Dst: chaos.Any, Prob: 1, To: chaos.Duration(time.Second),
			}}}
			eng := sim.NewEngine(1)
			params := testParams(2)
			params.Mode = mode
			net := New(eng, params)
			net.SetChaos(chaos.NewInjector(plan, 2))
			replies := 0
			net.SetHandler(0, func(src int, m Message) { replies++ })
			net.SetHandler(1, func(src int, m Message) { replies++ })
			data := make([]byte, 4096)
			var pr *PageRecv
			eng.Spawn("requester", func(tk *sim.Task) {
				pr = net.PreparePageRecv(tk, 1, 0)
			})
			eng.SpawnAfter("responder", 10*time.Microsecond, func(tk *sim.Task) {
				net.SendPage(tk, 1, 0, pr, data, expMsg{size: 32, seq: 0})
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if replies != 0 {
				t.Fatalf("dropped page unit still delivered %d messages", replies)
			}
		})
	}
}

func TestChaosPageDupDataBeforeReply(t *testing.T) {
	plan := &chaos.Plan{Seed: 5, Dup: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}}}
	eng, net, _ := chaosNet(t, 2, plan)
	data := []byte{42}
	var pr *PageRecv
	arrivals := 0
	net.SetHandler(0, func(src int, m Message) {
		if pr.data == nil {
			t.Error("reply arrived before page data")
		}
		arrivals++
	})
	net.SetHandler(1, func(src int, m Message) {})
	eng.Spawn("requester", func(tk *sim.Task) {
		pr = net.PreparePageRecv(tk, 1, 0)
	})
	eng.SpawnAfter("responder", time.Microsecond, func(tk *sim.Task) {
		net.SendPage(tk, 1, 0, pr, data, expMsg{size: 32, seq: 0})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if arrivals != 2 {
		t.Fatalf("duplicated page unit delivered %d replies, want 2", arrivals)
	}
}

// Every frame reference SendPage is handed goes back to its pool, whatever
// the fabric does with the page: dropped at the send, duplicated (the second
// placement finds the zone filled), re-sent after the zone was claimed, or
// sent to a node that has died.
func TestChaosPageRefsReturn(t *testing.T) {
	every := []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}}
	plans := map[string]*chaos.Plan{
		"drop": {Seed: 5, Drop: every},
		"dup":  {Seed: 5, Dup: every},
		"dead": {Seed: 5},
	}
	for _, mode := range []PageMode{HybridSink, PerPageReg, VerbOnly} {
		for name, plan := range plans {
			eng := sim.NewEngine(1)
			params := testParams(2)
			params.Mode = mode
			net := New(eng, params)
			inj := chaos.NewInjector(plan, 2)
			net.SetChaos(inj)
			net.SetHandler(0, func(int, Message) {})
			net.SetHandler(1, func(int, Message) {})
			var pool mem.FramePool
			var pr PageRecv
			eng.Spawn("requester", func(tk *sim.Task) {
				net.Prepare(tk, &pr, 1, 0, &pool)
				tk.Sleep(100 * time.Microsecond)
				if pr.data != nil {
					pool.Release(pr.Claim(tk))
				} else {
					pr.Release()
				}
			})
			eng.SpawnAfter("responder", 10*time.Microsecond, func(tk *sim.Task) {
				f := pool.Get() // held across both sends, like a re-send snapshot
				net.SendPage(tk, 1, 0, &pr, pool.Share(f), expMsg{size: 32})
				tk.Sleep(200 * time.Microsecond) // past the claim
				net.SendPage(tk, 1, 0, &pr, pool.Share(f), expMsg{size: 32})
				pool.Release(f)
			})
			if name == "dead" {
				eng.After(5*time.Microsecond, func() { inj.MarkDead(0) })
			}
			if err := eng.Run(); err != nil {
				t.Fatalf("%v %s: Run: %v", mode, name, err)
			}
			if pool.Free() != 1 || pool.SharedFrames() != 0 {
				t.Errorf("%v %s: %d frames pooled and %d still shared, want the one frame back", mode, name, pool.Free(), pool.SharedFrames())
			}
		}
	}
}

// Messages to and from a crashed node vanish; everyone else's traffic is
// untouched.
func TestChaosDeadNodeTraffic(t *testing.T) {
	eng, net, inj := chaosNet(t, 3, &chaos.Plan{Crashes: []chaos.Crash{{Node: 2, At: 0}}})
	var got []string
	for n := 0; n < 3; n++ {
		n := n
		net.SetHandler(n, func(src int, m Message) {
			got = append(got, fmt.Sprintf("%d<-%d", n, src))
		})
	}
	eng.Spawn("t", func(tk *sim.Task) {
		net.Send(tk, 0, 1, expMsg{size: 8, seq: 0})
		inj.MarkDead(2)
		net.Send(tk, 0, 2, expMsg{size: 8, seq: 1}) // to the dead node
		net.Send(tk, 2, 1, expMsg{size: 8, seq: 2}) // from the dead node
		net.Send(tk, 1, 0, expMsg{size: 8, seq: 3})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "1<-0" || got[1] != "0<-1" {
		t.Fatalf("deliveries = %v, want only the live pair", got)
	}
	if inj.Stats().Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", inj.Stats().Dropped)
	}
}

// An RNR storm stalls deliveries during its window and drains them, in
// order, when it ends.
func TestChaosRNRStormStallsAndDrains(t *testing.T) {
	storm := chaos.RNRStorm{Node: 1, From: chaos.Duration(0), To: chaos.Duration(500 * time.Microsecond)}
	eng, net, _ := chaosNet(t, 2, &chaos.Plan{RNRStorms: []chaos.RNRStorm{storm}})
	var got []int
	var firstAt time.Duration
	net.SetHandler(1, func(src int, m Message) {
		if len(got) == 0 {
			firstAt = eng.Now()
		}
		got = append(got, m.(expMsg).seq)
	})
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < 8; i++ {
			net.Send(tk, 0, 1, expMsg{size: 64, seq: i})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d, want 8 (storm must not lose messages)", len(got))
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("storm drain out of order: %v", got)
		}
	}
	if firstAt < storm.To.D() {
		t.Fatalf("first delivery at %v, inside the storm window (ends %v)", firstAt, storm.To.D())
	}
}

// A healed partition delivers everything it held, in order.
func TestChaosPartitionHoldsThenDelivers(t *testing.T) {
	part := chaos.Partition{A: []int{0}, B: []int{1}, From: 0, To: chaos.Duration(time.Millisecond)}
	eng, net, _ := chaosNet(t, 2, &chaos.Plan{Partitions: []chaos.Partition{part}})
	var got []int
	var firstAt time.Duration
	net.SetHandler(1, func(src int, m Message) {
		if len(got) == 0 {
			firstAt = eng.Now()
		}
		got = append(got, m.(expMsg).seq)
	})
	eng.Spawn("sender", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			net.Send(tk, 0, 1, expMsg{size: 64, seq: i})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("post-heal delivery out of order: %v", got)
		}
	}
	if firstAt < part.To.D() {
		t.Fatalf("first delivery at %v, before the partition healed at %v", firstAt, part.To.D())
	}
}

// A nil injector and an attached-but-empty plan must not change behaviour.
func TestChaosEmptyPlanIsInert(t *testing.T) {
	run := func(attach bool) (uint64, time.Duration) {
		eng := sim.NewEngine(1)
		net := New(eng, testParams(2))
		if attach {
			net.SetChaos(chaos.NewInjector(&chaos.Plan{Seed: 99}, 2))
		}
		var lastAt time.Duration
		net.SetHandler(1, func(src int, m Message) { lastAt = eng.Now() })
		eng.Spawn("sender", func(tk *sim.Task) {
			for i := 0; i < 10; i++ {
				net.Send(tk, 0, 1, expMsg{size: 64, seq: i})
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return net.Stats().SmallBytes, lastAt
	}
	b1, t1 := run(false)
	b2, t2 := run(true)
	if b1 != b2 || t1 != t2 {
		t.Fatalf("empty plan changed behaviour: (%d, %v) vs (%d, %v)", b1, t1, b2, t2)
	}
}
