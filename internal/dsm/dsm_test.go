package dsm

import (
	"testing"
	"time"

	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

type env struct {
	eng *sim.Engine
	net *fabric.Network
	m   *Manager
}

func newEnv(t *testing.T, nodes int, params Params, rec *obs.Recorder) *env {
	t.Helper()
	return newEnvSeed(t, nodes, params, rec, 1)
}

func newEnvSeed(t *testing.T, nodes int, params Params, rec *obs.Recorder, seed int64) *env {
	t.Helper()
	eng := sim.NewEngine(seed)
	net := fabric.New(eng, fabric.DefaultParams(nodes))
	rec.Bind(eng)
	m := New(eng, net, params, 1, 0, nodes, rec)
	for i := 0; i < nodes; i++ {
		node := i
		net.SetHandler(node, func(src int, msg fabric.Message) {
			if !m.HandleMessage(node, src, msg) {
				t.Errorf("unhandled message at node %d from %d: %T", node, src, msg)
			}
		})
	}
	return &env{eng: eng, net: net, m: m}
}

// faultEvents decodes the fault-level spans rec holds, in merged order.
func faultEvents(rec *obs.Recorder) []FaultEvent {
	var evs []FaultEvent
	for _, s := range rec.Spans() {
		if ev, ok := FaultFromSpan(s); ok {
			evs = append(evs, ev)
		}
	}
	return evs
}

func (e *env) run(t *testing.T) {
	t.Helper()
	if err := e.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func (e *env) write(t *sim.Task, node int, addr mem.Addr, val byte) {
	pte := e.m.EnsurePage(t, Ctx{Node: node, Site: "test"}, addr, true)
	pte.Frame[addr.PageOff()] = val
}

func (e *env) read(t *sim.Task, node int, addr mem.Addr) byte {
	pte := e.m.EnsurePage(t, Ctx{Node: node, Site: "test"}, addr, false)
	return pte.Frame[addr.PageOff()]
}

const testAddr = mem.Addr(0x40000000)

func TestRemoteReadSeesOriginData(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 42) // first touch at origin
		got = e.read(tk, 1, testAddr)
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("remote read = %d, want 42", got)
	}
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (first touch at origin must not count)", st.ReadFaults)
	}
	if st.WriteFaults != 0 {
		t.Fatalf("WriteFaults = %d, want 0", st.WriteFaults)
	}
	// Both nodes now share the page.
	if e.m.Lookup(0, testAddr.VPN(), false) == nil || e.m.Lookup(1, testAddr.VPN(), false) == nil {
		t.Fatal("page not replicated to both nodes")
	}
	if e.m.Lookup(1, testAddr.VPN(), true) != nil {
		t.Fatal("remote replica is writable after a read grant")
	}
}

func TestRemoteWriteInvalidatesOrigin(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	var back byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 99) // remote takes exclusive ownership
		if e.m.Lookup(0, testAddr.VPN(), false) != nil {
			t.Error("origin copy survived a remote write grant")
		}
		back = e.read(tk, 0, testAddr) // origin pulls the page home
	})
	e.run(t)
	if back != 99 {
		t.Fatalf("origin read back %d, want 99", back)
	}
	st := e.m.Stats()
	if st.PageTransfers == 0 {
		t.Fatal("expected a fetch-from-writer page transfer")
	}
	if st.Invalidations == 0 {
		t.Fatal("expected at least one invalidation")
	}
}

func TestOwnershipOnlyGrantOnUpgrade(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 5)
		_ = e.read(tk, 1, testAddr) // node 1 gets a shared copy
		e.write(tk, 1, testAddr, 6) // upgrade: fresh copy, no data needed
		if got := e.read(tk, 0, testAddr); got != 6 {
			t.Errorf("origin read %d, want 6", got)
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.OwnershipGrants != 1 {
		t.Fatalf("OwnershipGrants = %d, want 1", st.OwnershipGrants)
	}
}

// An ownership-only grant revokes the home's copy without sending it, and
// serveWrite releases that reference, so the upgraded writer's copy — the
// frame the home wrote and the reader shares — has no other holder and is
// written in place. A page that goes home → reader → upgraded writer → home
// over and over then runs on the one frame its first touch took, copying
// nothing and putting nothing in the pool.
func TestUpgradePingPongRecyclesHomeFrame(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < 20; i++ {
			e.write(tk, 0, testAddr, byte(i))
			_ = e.read(tk, 1, testAddr)
			e.write(tk, 1, testAddr, byte(i+1)) // ownership only: the home's reference is dropped
		}
	})
	e.run(t)
	if _, allocs, _ := e.m.FrameStats(); allocs != 1 || e.m.frames.Copies() != 0 || e.m.frames.Free() != 0 {
		t.Errorf("20 rounds allocated %d frames, copied %d and pooled %d, want 1, 0 and 0",
			allocs, e.m.frames.Copies(), e.m.frames.Free())
	}
	if got := e.m.Stats().OwnershipGrants; got != 20 {
		t.Fatalf("OwnershipGrants = %d, want one per round", got)
	}
}

func TestAlwaysSendDataAblation(t *testing.T) {
	p := DefaultParams()
	p.AlwaysSendData = true
	e := newEnv(t, 2, p, nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 5)
		_ = e.read(tk, 1, testAddr)
		e.write(tk, 1, testAddr, 6)
	})
	e.run(t)
	if got := e.m.Stats().OwnershipGrants; got != 0 {
		t.Fatalf("OwnershipGrants = %d, want 0 with AlwaysSendData", got)
	}
}

func TestThirdNodeTransfer(t *testing.T) {
	e := newEnv(t, 3, DefaultParams(), nil)
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 123) // node 1 exclusive
		got = e.read(tk, 2, testAddr) // via origin: downgrade node 1, replicate to 2
	})
	e.run(t)
	if got != 123 {
		t.Fatalf("third-node read = %d, want 123", got)
	}
	// All three nodes (origin pulled a copy home too) share it.
	for n := 0; n < 3; n++ {
		if e.m.Lookup(n, testAddr.VPN(), false) == nil {
			t.Fatalf("node %d lacks a shared copy", n)
		}
	}
	if e.m.Stats().Downgrades != 1 {
		t.Fatalf("Downgrades = %d, want 1", e.m.Stats().Downgrades)
	}
}

func TestUncontendedRemoteFaultLatency(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	var lat time.Duration
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		start := tk.Now()
		_ = e.read(tk, 1, testAddr)
		lat = tk.Now() - start
	})
	e.run(t)
	// Paper §V-D: uncontended faults complete in 19.3 µs.
	if lat < 14*time.Microsecond || lat > 26*time.Microsecond {
		t.Fatalf("uncontended remote fault = %v, want ~19µs", lat)
	}
}

func TestLeaderFollowerCoalescing(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	const threads = 8
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		for i := 0; i < threads; i++ {
			e.eng.Spawn("reader", func(tk *sim.Task) {
				if got := e.read(tk, 1, testAddr); got != 9 {
					t.Errorf("reader saw %d, want 9", got)
				}
			})
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (coalesced)", st.ReadFaults)
	}
	if st.FollowerJoins != threads-1 {
		t.Fatalf("FollowerJoins = %d, want %d", st.FollowerJoins, threads-1)
	}
}

// A coalesced follower is switched into once, when its FollowerWake ends: the
// leader's Unpark takes that sleep in event context (ParkOnThenSleep). So each
// reader beyond the first of 8 on one node reading one remote page adds two
// switches, its start and its wake-up, where park-then-sleep cost three; its
// events, a start, an unpark and a sleep wake, are the same.
func TestFollowerSwitchBudget(t *testing.T) {
	run := func(threads int) sim.SchedStats {
		e := newEnv(t, 2, DefaultParams(), nil)
		e.eng.CountEventKinds()
		e.eng.Spawn("setup", func(tk *sim.Task) {
			e.write(tk, 0, testAddr, 9)
			for i := 0; i < threads; i++ {
				e.eng.Spawn("reader", func(tk *sim.Task) { e.read(tk, 1, testAddr) })
			}
		})
		e.run(t)
		if got := e.m.Stats().FollowerJoins; got != uint64(threads-1) {
			t.Fatalf("%d readers: FollowerJoins = %d, want %d", threads, got, threads-1)
		}
		return e.eng.SchedStats()
	}
	one, eight := run(1), run(8)
	switches, events := eight.Census.Switches-one.Census.Switches, eight.Events-one.Events
	if switches != 7*2 || events != 7*3 {
		t.Fatalf("7 followers cost %d switches and %d events, want %d and %d", switches, events, 7*2, 7*3)
	}
}

// TestFollowerJoinCountedOncePerGroup pins the A1 ablation counter: a task
// that parks on an in-flight fault group, is woken spuriously (e.g. by a
// stray futex wake delivered as an Unpark token), and re-parks on the same
// group must count as ONE follower join, not one per park.
func TestFollowerJoinCountedOncePerGroup(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	var follower *sim.Task
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		e.eng.Spawn("leader", func(tk *sim.Task) {
			if got := e.read(tk, 1, testAddr); got != 9 {
				t.Errorf("leader read %d, want 9", got)
			}
		})
		follower = e.eng.Spawn("follower", func(tk *sim.Task) {
			// Start after the leader so the fault group is in flight.
			tk.Sleep(2 * time.Microsecond)
			if got := e.read(tk, 1, testAddr); got != 9 {
				t.Errorf("follower read %d, want 9", got)
			}
		})
		// Spurious wake while the leader's protocol (~19µs) is still
		// running: the follower re-parks on the same fault group.
		e.eng.SpawnAfter("poker", 5*time.Microsecond, func(tk *sim.Task) {
			follower.Unpark()
		})
	})
	e.run(t)
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (coalesced)", st.ReadFaults)
	}
	if st.FollowerJoins != 1 {
		t.Fatalf("FollowerJoins = %d, want exactly 1 for one follower", st.FollowerJoins)
	}
}

// A node reuses its fault groups, so a follower that wakes to find its page
// gone again can find the very group it joined, taken by a new leader for the
// same page. That is a new fault: the follower must join it, or nobody wakes
// it (the run ends in a deadlock report).
func TestFollowerRejoinsRecycledGroup(t *testing.T) {
	p := DefaultParams()
	p.FollowerWake = 300 * time.Microsecond // the window the page is lost in
	e := newEnv(t, 2, p, nil)
	e.eng.SetEventLimit(1 << 20)
	var followerSaw byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		e.eng.Spawn("follower", func(tk *sim.Task) {
			tk.Sleep(2 * time.Microsecond) // join the leader's fault in flight
			followerSaw = e.read(tk, 1, testAddr)
		})
		e.read(tk, 1, testAddr) // lead; the follower wakes 300 µs from now
		wakes := tk.Now() + p.FollowerWake
		e.write(tk, 0, testAddr, 2) // invalidates node 1's copy
		tk.Sleep(wakes - 5*time.Microsecond - tk.Now())
		if got := e.read(tk, 1, testAddr); got != 2 { // leads across the wake
			t.Errorf("second leader read %d, want 2", got)
		}
	})
	e.run(t)
	if followerSaw != 2 {
		t.Fatalf("follower read %d, want the fresh 2", followerSaw)
	}
	groups := e.m.nodes[1].groups
	if len(groups) != 1 {
		t.Fatalf("node 1 has %d spare groups, want the one both leaders used", len(groups))
	}
	if uses := groups[0].seq; uses != 2 {
		t.Fatalf("node 1's group was used %d times, want 2: once per leader", uses)
	}
	if got := e.m.Stats().FollowerJoins; got != 2 {
		t.Fatalf("FollowerJoins = %d, want 2: one per use of the group", got)
	}
}

func TestCoalescingDisabledAblation(t *testing.T) {
	p := DefaultParams()
	p.DisableCoalescing = true
	e := newEnv(t, 2, p, nil)
	const threads = 8
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		for i := 0; i < threads; i++ {
			e.eng.Spawn("reader", func(tk *sim.Task) {
				_ = e.read(tk, 1, testAddr)
			})
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.FollowerJoins != 0 {
		t.Fatalf("FollowerJoins = %d, want 0 when disabled", st.FollowerJoins)
	}
	// Every thread that still misses after the first install leads its own
	// fault; at minimum the protocol ran more than once or NACKed.
	if st.ReadFaults+st.Nacks < 2 {
		t.Fatalf("expected redundant protocol work, stats = %+v", st)
	}
}

func TestWritePingPongProducesRetriesAndBimodalLatency(t *testing.T) {
	rec := obs.NewFaultRecorder()
	e := newEnv(t, 2, DefaultParams(), rec)
	const iters = 120
	for n := 0; n < 2; n++ {
		node := n
		e.eng.Spawn("writer", func(tk *sim.Task) {
			for i := 0; i < iters; i++ {
				// Update = read-modify-write, like the paper's microbench
				// ("both threads continually update a single global").
				v := e.read(tk, node, testAddr)
				e.write(tk, node, testAddr, v+1)
				tk.Sleep(2 * time.Microsecond)
			}
		})
	}
	e.run(t)
	st := e.m.Stats()
	if st.Nacks == 0 {
		t.Fatalf("expected NACK retries under ping-pong, stats = %+v", st)
	}
	var fast, slow int
	for _, ev := range faultEvents(rec) {
		if ev.Kind == KindInvalidate {
			continue
		}
		if ev.Latency < 40*time.Microsecond {
			fast++
		} else {
			slow++
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("latency distribution not bimodal: fast=%d slow=%d", fast, slow)
	}
}

func TestProfilerHookReceivesEvents(t *testing.T) {
	rec := obs.NewRecorder()
	e := newEnv(t, 2, DefaultParams(), rec)
	e.eng.Spawn("main", func(tk *sim.Task) {
		pte := e.m.EnsurePage(tk, Ctx{Node: 0, Task: 3, Site: "init"}, testAddr, true)
		pte.Frame[0] = 1
		pte = e.m.EnsurePage(tk, Ctx{Node: 1, Task: 7, Site: "reader"}, testAddr, false)
		_ = pte.Frame[0]
		pte = e.m.EnsurePage(tk, Ctx{Node: 1, Task: 7, Site: "writer"}, testAddr, true)
		pte.Frame[0] = 2
	})
	e.run(t)
	var reads, writes, invals int
	for _, ev := range faultEvents(rec) {
		switch ev.Kind {
		case KindRead:
			reads++
			if ev.Site != "reader" || ev.Node != 1 || ev.Task != 7 {
				t.Errorf("bad read event: %+v", ev)
			}
			if ev.Latency <= 0 {
				t.Errorf("read event missing latency: %+v", ev)
			}
		case KindWrite:
			writes++
		case KindInvalidate:
			invals++
		}
	}
	if reads != 1 || writes != 1 || invals == 0 {
		t.Fatalf("events: reads=%d writes=%d invals=%d", reads, writes, invals)
	}
}

func TestDeterministicStats(t *testing.T) {
	run := func() Stats {
		e := newEnvSeed(t, 3, DefaultParams(), nil, 5)
		for n := 0; n < 3; n++ {
			node := n
			e.eng.Spawn("w", func(tk *sim.Task) {
				for i := 0; i < 50; i++ {
					e.write(tk, node, testAddr+mem.Addr(i%2*mem.PageSize), byte(i))
					tk.Sleep(3 * time.Microsecond)
				}
			})
		}
		e.run(t)
		return e.m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestManyPagesManyNodes(t *testing.T) {
	const nodes = 8
	e := newEnv(t, nodes, DefaultParams(), nil)
	const pages = 16
	// Each node writes its own page slice, then reads everyone else's.
	done := 0
	for n := 0; n < nodes; n++ {
		node := n
		e.eng.Spawn("worker", func(tk *sim.Task) {
			for p := 0; p < pages; p++ {
				if p%nodes == node {
					e.write(tk, node, testAddr+mem.Addr(p*mem.PageSize), byte(p))
				}
			}
			tk.Sleep(500 * time.Microsecond) // let all writers finish
			for p := 0; p < pages; p++ {
				if got := e.read(tk, node, testAddr+mem.Addr(p*mem.PageSize)); got != byte(p) {
					t.Errorf("node %d page %d read %d", node, p, got)
				}
			}
			done++
		})
	}
	e.run(t)
	if done != nodes {
		t.Fatalf("only %d workers completed", done)
	}
}
