package dsm

import (
	"math/rand"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// This file is the policy-conformance suite: every test here runs once per
// row of protocolRegistry, so whatever the one fault / serve / dispatch /
// reclaim path does, it is held to the same contract under every placement.
// Expectations that legitimately differ between policies are per-protocol
// tables inside the test; tests of behaviour only one policy has (redirect repair,
// forwarding-chain compression, fetch-from-writer) stay in that policy's
// own test file.

func protoParams(p Protocol) Params {
	params := DefaultParams()
	params.Protocol = p
	return params
}

func homeParams() Params { return protoParams(HomeMigrate) }
func distParams() Params { return protoParams(DistributedManager) }

func forEachProtocol(t *testing.T, fn func(t *testing.T, proto Protocol)) {
	for _, pi := range protocolRegistry {
		t.Run(pi.name, func(t *testing.T) { fn(t, pi.proto) })
	}
}

// anchoredAddrs returns the first n pages of the test heap whose lookup
// anchor is node. It fails the test if the first 64·n pages hold fewer: a
// node outside the anchor ring anchors none.
func anchoredAddrs(t *testing.T, m *Manager, node, n int) []mem.Addr {
	t.Helper()
	var out []mem.Addr
	for i, a := 0, testAddr; len(out) < n; i, a = i+1, a+mem.Addr(mem.PageSize) {
		if i == 64*n {
			t.Fatalf("%d of the first %d pages anchor at node %d, want %d", len(out), i, node, n)
		}
		if m.anchor(a.VPN()) == node {
			out = append(out, a)
		}
	}
	return out
}

// doomedAddrs returns n pages to crash a node under: anchored at doomed
// where anchors are spread over the nodes, so the crash takes the pages'
// lookup anchor down with their home; anchored at the origin, the one
// anchor, elsewhere.
func doomedAddrs(t *testing.T, m *Manager, doomed, n int) []mem.Addr {
	t.Helper()
	if len(m.dir.anchors) == 1 {
		doomed = m.dir.anchors[0]
	}
	return anchoredAddrs(t, m, doomed, n)
}

// TestSequentialRandomOpsDataCorrect drives a random sequence of reads and
// writes from varying nodes through one task and checks every read observes
// the most recent write (sequential consistency under a serial history), and
// that the global invariants hold at quiescence.
func TestSequentialRandomOpsDataCorrect(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		const nodes = 4
		e := newEnv(t, nodes, protoParams(proto), nil)
		rng := rand.New(rand.NewSource(99))
		ref := make(map[mem.Addr]byte)
		e.eng.Spawn("driver", func(tk *sim.Task) {
			for i := 0; i < 600; i++ {
				page := mem.Addr(0x40000000 + mem.PageSize*(rng.Intn(8)))
				addr := page + mem.Addr(rng.Intn(mem.PageSize))
				node := rng.Intn(nodes)
				if rng.Intn(2) == 0 {
					v := byte(rng.Intn(256))
					e.write(tk, node, addr, v)
					ref[addr] = v
				} else {
					got := e.read(tk, node, addr)
					if want := ref[addr]; got != want {
						t.Errorf("op %d: node %d read %v = %d, want %d", i, node, addr, got, want)
						return
					}
				}
			}
		})
		e.run(t) // includes CheckInvariants
	})
}

// TestConcurrentInvariants runs many concurrent accessors across nodes and
// pages (races, NACK/backoff, home re-checks and redirect retries after
// backoff), then verifies the protocol's global invariants at quiescence
// through the one checker.
func TestConcurrentInvariants(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		const nodes = 4
		for seed := int64(1); seed <= 3; seed++ {
			e := newEnvSeed(t, nodes, protoParams(proto), nil, seed)
			rng := rand.New(rand.NewSource(seed * 7))
			for w := 0; w < 12; w++ {
				node := w % nodes
				ops := make([]struct {
					addr  mem.Addr
					write bool
				}, 60)
				for i := range ops {
					ops[i].addr = mem.Addr(0x40000000+mem.PageSize*rng.Intn(4)) + mem.Addr(rng.Intn(mem.PageSize))
					ops[i].write = rng.Intn(3) == 0
				}
				e.eng.Spawn("stress", func(tk *sim.Task) {
					for i, op := range ops {
						if op.write {
							e.write(tk, node, op.addr, byte(i))
						} else {
							_ = e.read(tk, node, op.addr)
						}
						tk.Sleep(time.Microsecond)
					}
				})
			}
			e.run(t) // includes CheckInvariants
		}
	})
}

// runMixed runs mixedWorkload under plan and checks the values it read.
func runMixed(t *testing.T, proto Protocol, plan *chaos.Plan) *env {
	t.Helper()
	e := newChaosEnvParams(t, 3, plan, protoParams(proto))
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
	return e
}

func TestChaosDropRecoversByRetransmission(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := runMixed(t, proto, &chaos.Plan{
			Seed: 3,
			Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.4}},
		})
		if st := e.m.Stats(); st.Retransmits == 0 {
			t.Fatalf("Retransmits = 0 under a 40%% drop rate (injector stats: %+v)", e.net.Chaos().Stats())
		}
		if e.net.Chaos().Stats().Dropped == 0 {
			t.Fatal("injector dropped nothing at prob 0.4")
		}
	})
}

func TestChaosDuplicatesAreIdempotent(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := runMixed(t, proto, &chaos.Plan{
			Seed: 5,
			Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}},
		})
		if st := e.m.Stats(); st.DupsIgnored == 0 {
			t.Fatalf("DupsIgnored = 0 with every message duplicated (stats: %+v)", st)
		}
	})
}

func TestChaosDropDupDelayTogether(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		runMixed(t, proto, &chaos.Plan{
			Seed:  9,
			Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.25}},
			Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
			Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(30 * time.Microsecond)}},
		})
	})
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		plan := &chaos.Plan{
			Seed:  7,
			Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
			Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
			Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(20 * time.Microsecond)}},
		}
		run := func() (Stats, chaos.Stats, time.Duration) {
			e := runMixed(t, proto, plan)
			return e.m.Stats(), e.net.Chaos().Stats(), e.eng.Now()
		}
		s1, i1, t1 := run()
		s2, i2, t2 := run()
		if s1 != s2 || i1 != i2 || t1 != t2 {
			t.Fatalf("same seed+plan diverged:\n%+v %+v %v\nvs\n%+v %+v %v", s1, i1, t1, s2, i2, t2)
		}
	})
}

// TestChaosLostExclusiveZeroFills: when a node dies holding a page's only
// copy — it was the exclusive writer, and under the migrating policies the
// page's home as well — reclaim lands a zero-filled replacement at the
// page's live anchor and counts the page lost. A page the dead node only
// read survives, and the lost page stays writable by the survivors.
func TestChaosLostExclusiveZeroFills(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		// What the doomed node's death costs beyond the lost page: a dead
		// home is rebuilt only where a home can be a node other than the
		// origin — one page where it anchors at the origin, both where the
		// doomed node, as their anchor, is home of both.
		want := map[Protocol]struct{ rehomed, rebuilt uint64 }{
			WriteInvalidate:    {0, 0},
			HomeMigrate:        {1, 1},
			DistributedManager: {2, 2},
		}[proto]
		const doomed = 1
		e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: doomed, At: chaos.Duration(time.Millisecond)}}}, protoParams(proto))
		addrs := doomedAddrs(t, e.m, doomed, 2)
		addrA, addrB := addrs[0], addrs[1]
		var afterA, afterB, rewritten byte
		e.eng.Spawn("main", func(tk *sim.Task) {
			e.write(tk, 0, addrA, 7)
			e.write(tk, doomed, addrA, 9) // the doomed node is exclusive writer (and home, where homes move)
			_ = e.read(tk, 0, addrB)      // a surviving replica: B must not be lost
			afterB = e.read(tk, doomed, addrB)
			tk.Sleep(time.Millisecond)
			// Crash the node the way core does: mark it dead, then reclaim.
			e.net.Chaos().MarkDead(doomed)
			lost, err := e.m.ReclaimDeadNode(doomed)
			if err != nil {
				t.Errorf("ReclaimDeadNode: %v", err)
			}
			if len(lost) != 1 || lost[0] != addrA.VPN() {
				t.Errorf("ReclaimDeadNode lost %#x, want exactly page %#x", lost, addrA.VPN())
			}
			afterA = e.read(tk, 2, addrA)
			e.write(tk, 2, addrA, 5)
			rewritten = e.read(tk, 0, addrA)
		})
		e.run(t)
		if afterB != 0 {
			t.Fatalf("doomed node read %d from an untouched page, want 0", afterB)
		}
		if afterA != 0 {
			t.Fatalf("read from lost page = %d, want 0 (zero-filled)", afterA)
		}
		if rewritten != 5 {
			t.Fatalf("read after a survivor's write = %d, want 5", rewritten)
		}
		st := e.m.Stats()
		if st.PagesLost != 1 {
			t.Fatalf("PagesLost = %d, want 1", st.PagesLost)
		}
		if st.PagesRehomed != want.rehomed || st.DirRebuilt != want.rebuilt {
			t.Fatalf("PagesRehomed = %d, DirRebuilt = %d; want %d and %d", st.PagesRehomed, st.DirRebuilt, want.rehomed, want.rebuilt)
		}
	})
}

// TestChaosCrashDuringTraffic drives a workload while a node that has become
// writer (and, where homes move, home) of the pages crashes mid-run under
// drops, exercising the serve-side dead-home and dead-writer recovery paths
// both before and after the death is committed; the engine must drain
// without deadlock and the directory must end consistent. The reclaim comes
// from a task of its own, as the lease layer's does: under the sharded
// placement a fault whose anchor died cannot resolve before it.
func TestChaosCrashDuringTraffic(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		const doomed = 1
		for seed := int64(1); seed <= 5; seed++ {
			plan := &chaos.Plan{
				Seed:    seed,
				Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
				Crashes: []chaos.Crash{{Node: doomed, At: chaos.Duration(300 * time.Microsecond)}},
			}
			e := newChaosEnvParams(t, 3, plan, protoParams(proto))
			addrs := doomedAddrs(t, e.m, doomed, 2)
			addrA, addrB := addrs[0], addrs[1]
			e.eng.Spawn("main", func(tk *sim.Task) {
				e.write(tk, 0, addrA, 10)
				e.write(tk, doomed, addrA, 11) // home moves to the doomed node
				e.write(tk, doomed, addrB, 21)
				tk.Sleep(time.Millisecond)     // crash fires
				e.net.Chaos().MarkDead(doomed) // idempotent with the plan's crash
				_ = e.read(tk, 2, addrA)       // stale-route / dead-home recovery
				e.write(tk, 2, addrB, 22)
				tk.SleepUntil(3 * time.Millisecond) // reclaim has committed
				_ = e.read(tk, 0, addrA)
				e.write(tk, 0, addrA, 12)
				if got := e.read(tk, 2, addrA); got != 12 {
					t.Errorf("seed %d: read after recovery = %d, want 12", seed, got)
				}
			})
			e.eng.SpawnAfter("lease", 2*time.Millisecond, func(tk *sim.Task) {
				if _, err := e.m.ReclaimDeadNode(doomed); err != nil {
					t.Errorf("seed %d: ReclaimDeadNode: %v", seed, err)
				}
			})
			e.run(t) // includes CheckInvariants
		}
	})
}

// TestChaosDeadRequesterRollsBackGrant: all traffic from the serving home to
// node 1 is dropped, so the write grant for node 1 never lands; node 1 then
// crashes mid-transaction. The home must detect the death on its install-ack
// timeout, roll the grant back, and keep the page (and its contents)
// reachable for the survivors.
func TestChaosDeadRequesterRollsBackGrant(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		plan := &chaos.Plan{
			Seed: 1,
			Drop: []chaos.LinkRule{{Src: 0, Dst: 1, Prob: 1, To: chaos.Duration(50 * time.Millisecond)}},
		}
		e := newChaosEnvParams(t, 3, plan, protoParams(proto))
		var got byte
		var victim *sim.Task
		e.eng.Spawn("setup", func(tk *sim.Task) {
			e.write(tk, 0, testAddr, 7) // node 0 is writer, and home under every policy
		})
		victim = e.eng.SpawnAfter("doomed-writer", 100*time.Microsecond, func(tk *sim.Task) {
			e.write(tk, 1, testAddr, 9) // grant is dropped; retransmits forever
		})
		e.eng.SpawnAfter("controller", 2*time.Millisecond, func(tk *sim.Task) {
			victim.Kill()
			e.net.Chaos().MarkDead(1)
			tk.Sleep(20 * time.Millisecond) // let the home's timeout fire
			got = e.read(tk, 0, testAddr)
			e.m.ReclaimDeadNode(1)
		})
		e.run(t)
		if got != 7 {
			t.Fatalf("home read %d after rollback, want the pre-grant contents 7", got)
		}
		st := e.m.Stats()
		if st.Retransmits == 0 {
			t.Fatalf("Retransmits = 0, want >0 (stats: %+v)", st)
		}
		if st.PagesLost != 0 {
			t.Fatalf("PagesLost = %d, want 0: the home retained a data snapshot", st.PagesLost)
		}
	})
}

// TestManagerReportsProtocol: a manager runs, and reports, the policy its
// parameters name.
func TestManagerReportsProtocol(t *testing.T) {
	if p := newEnv(t, 2, DefaultParams(), nil).m.Protocol(); p != WriteInvalidate {
		t.Fatalf("default protocol = %v", p)
	}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		if p := newEnv(t, 2, protoParams(proto), nil).m.Protocol(); p != proto {
			t.Fatalf("protocol = %v, want %v", p, proto)
		}
	})
}

// TestRequestAwayFromOriginPanicsWithoutMigration pins the one safety check
// that is the non-migrating policy's alone: with authority fixed at the
// origin, a page request delivered to any other node is a routing bug and
// must panic, not quietly turn into a redirect the way it would under the
// migrating policies.
func TestRequestAwayFromOriginPanicsWithoutMigration(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		o := e.m.e.requests.take() // the request lives in node 2's record
		o.m, o.req = e.m, pageRequest{pid: e.m.pid, vpn: testAddr.VPN(), node: 2, token: nextSeq(2, &e.m.nodes[2].reqCtr), o: o}
		req := &o.req
		_, panicked := panics(func() { e.m.HandleMessage(1, 2, req) })
		if want := proto == WriteInvalidate; panicked != want {
			t.Fatalf("request delivered at node 1 (origin 0): panicked = %v, want %v", panicked, want)
		}
	})
}
