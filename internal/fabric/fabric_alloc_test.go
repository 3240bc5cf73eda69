package fabric

import (
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// allocMsg is a message that costs nothing to hand to Send: a pointer fits
// the Message interface without boxing.
type allocMsg struct{ size int }

func (m *allocMsg) Size() int        { return m.size }
func (m *allocMsg) ChaosExpendable() {}

// allocRuns is how often testing.AllocsPerRun calls its function: a warm-up
// and the measured runs.
const allocRuns = 1 + 200

// allocsPerOp reports the host allocations of one op, those of the events it
// causes included: it runs inside a task that after each op sleeps until
// everything the op put in flight has been handled.
func allocsPerOp(t *testing.T, eng *sim.Engine, op func(tk *sim.Task, i int)) float64 {
	t.Helper()
	var got float64
	eng.Spawn("meter", func(tk *sim.Task) {
		i := 0
		got = testing.AllocsPerRun(allocRuns-1, func() {
			op(tk, i)
			i++
			tk.Sleep(50 * time.Microsecond)
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

// A small message costs no object from Send to its handler: its flight, which
// is also its arrival event and its receive completion, comes off the
// network's free list and goes back once the handler has run. The send
// completion and the link's release are bound once per connection.
func TestSendAllocsPerRun(t *testing.T) {
	for _, lanes := range []int{0, 2} {
		eng := sim.NewEngine(1)
		if lanes > 0 {
			eng.ConfigureLanes(lanes, 1)
			eng.SetLookahead(LinkLatency)
		}
		net := New(eng, testParams(2))
		handled := 0
		net.SetHandler(1, func(int, Message) { handled++ })
		msg := &allocMsg{size: 64}
		got := allocsPerOp(t, eng, func(tk *sim.Task, _ int) { net.Send(tk, 0, 1, msg) })
		if got != 0 || handled != allocRuns {
			t.Errorf("%d lanes: Send to handler: %v allocs per message, want 0 (%d of %d handled)", lanes, got, handled, allocRuns)
		}
	}
}

// A page through the sink is none, from the landing zone to its claim: the
// zone is prepared in place in one the caller owns, the placement carries the
// caller's frame reference, it and the reply's flight are recycled, the claim
// hands the sink chunk back and the frame goes back to its pool.
func TestSendPageAllocsPerRun(t *testing.T) {
	p := testParams(2)
	eng := sim.NewEngine(1)
	net := New(eng, p)
	handled := 0
	net.SetHandler(1, func(int, Message) { handled++ })
	reply := &allocMsg{size: 32}
	var pool mem.FramePool
	var pr PageRecv
	claimed := 0
	got := allocsPerOp(t, eng, func(tk *sim.Task, i int) {
		data := pool.Get()
		data[0] = byte(i)
		net.Prepare(tk, &pr, 0, 1, &pool)
		net.SendPage(tk, 0, 1, &pr, data, reply)
		tk.Sleep(50 * time.Microsecond) // the page and its reply land
		got := pr.Claim(tk)
		if got[0] == byte(i) {
			claimed++
		}
		pool.Release(got)
	})
	if got > 0 || handled != allocRuns || claimed != allocRuns {
		t.Errorf("prepare, SendPage and Claim through the sink: %v allocs per page, want 0 (%d replies handled, %d pages claimed, of %d)",
			got, handled, claimed, allocRuns)
	}
	if free := net.SinkFree(0, 1); free != p.SinkChunks {
		t.Errorf("%d of %d sink chunks free after every page was claimed", free, p.SinkChunks)
	}
	if pool.Allocs() != 1 {
		t.Errorf("%d frames allocated for one page in flight at a time, want 1", pool.Allocs())
	}
}

// A duplicated message is a second flight from the same free list: nothing
// more is allocated.
func TestChaosDupAllocsPerRun(t *testing.T) {
	perMessage := func(dup float64) float64 {
		plan := &chaos.Plan{Seed: 3, Dup: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: dup}}}
		eng, net, _ := chaosNet(t, 2, plan)
		handled := 0
		net.SetHandler(1, func(int, Message) { handled++ })
		msg := &allocMsg{size: 64}
		got := allocsPerOp(t, eng, func(tk *sim.Task, _ int) { net.Send(tk, 0, 1, msg) })
		if want := allocRuns * int(1+dup); handled != want {
			t.Errorf("dup %v: %d messages handled, want %d", dup, handled, want)
		}
		return got
	}
	if once, twice := perMessage(0), perMessage(1); once != 0 || twice != 0 {
		t.Errorf("a duplicated message: %v allocs against %v undisturbed, want 0 and 0", twice, once)
	}
}

// A network is a constant number of objects however many connections it has:
// the connections sit in one slice, each holding its link and its two pools
// by value, and their names ("link2->1") are formatted only where a
// diagnostic prints them. A sender waiting on a sink pool still parks on
// the pool's full name.
func TestNewNetworkAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, nodes := range []int{2, 8} {
		if got := testing.AllocsPerRun(10, func() { New(eng, testParams(nodes)) }); got != 3 {
			t.Errorf("New on %d nodes allocates %v objects, want 3: the network, its connections and its handlers", nodes, got)
		}
	}
	p := testParams(3)
	p.SinkChunks = 1
	net := New(eng, p)
	eng.Spawn("receiver", func(tk *sim.Task) {
		net.PreparePageRecv(tk, 2, 1)
		net.PreparePageRecv(tk, 2, 1) // the sink's one chunk is taken
	})
	err := eng.Run()
	if want := `(parked at "semaphore sink link2->1")`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run = %v, want a deadlock naming %s", err, want)
	}
}
