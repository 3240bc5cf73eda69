package dsm

import (
	"reflect"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// newChaosEnvParams is newChaosEnv with a caller-supplied cost model.
func newChaosEnvParams(t *testing.T, nodes int, plan *chaos.Plan, params Params) *env {
	t.Helper()
	if err := plan.Validate(nodes); err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(nodes))
	net.SetChaos(chaos.NewInjector(plan, nodes))
	m := New(eng, net, params, 1, 0, nodes, nil)
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

// count is how many records w holds.
func count[T record](w *window[T]) (n int) {
	var none T
	for _, r := range w.recs {
		if r != none {
			n++
		}
	}
	return n
}

// TestChaosDedupStateStaysBounded drives thousands of deduplicated
// transactions through a lossy, duplicating fabric and checks that the
// records kept past their transactions — the home's served tokens, each
// node's installed requests and applied revocations — go as the floors their
// issuers send move, instead of growing with the run: every floor is heard
// close to its issuer's counter at the end, and no node ever holds more than
// a handful of records, or window slots, for one peer.
func TestChaosDedupStateStaysBounded(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 11,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.05}},
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
	}
	e := newChaosEnv(t, 3, plan)
	e.eng.SetEventLimit(600_000) // the run takes 59,385: a lost record livelocks, and fails here

	const iters = 1500
	maxRecs, maxSlots := 0, 0
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < iters; i++ {
			// Three pages with alternating writers: the odd stride keeps
			// node and page parity decorrelated, so every write faults.
			node := 1 + i%2
			addr := testAddr + mem.Addr(i%3*mem.PageSize)
			e.write(tk, node, addr, byte(i))
			if got := e.read(tk, node, addr); got != byte(i) {
				t.Errorf("iter %d: read back %d, want %d", i, got, byte(i))
				return
			}
			for _, ns := range e.m.nodes {
				for i := range ns.peers {
					p := &ns.peers[i]
					maxRecs = max(maxRecs, count(&p.served), count(&p.applied), count(&p.installed))
					maxSlots = max(maxSlots, len(p.served.recs), len(p.applied.recs), len(p.installed.recs))
				}
			}
			tk.Sleep(20 * time.Microsecond)
		}
	})
	e.run(t)

	var tokens, seqs uint64
	for _, ns := range e.m.nodes {
		tokens += ns.reqCtr
		seqs += ns.revCtr
	}
	if tokens < iters {
		t.Fatalf("allocated %d tokens; the workload should have allocated at least %d", tokens, iters)
	}
	if seqs < iters/2 {
		t.Fatalf("allocated %d revoke seqs, want at least %d", seqs, iters/2)
	}
	// Every floor a node heard has followed the numbers it bounds to within a
	// few of the last one allocated. Under write-invalidate every request and
	// every revocation is the origin's business.
	const lag = 4
	near := func(what string, node int, heard uint64, owner int, ctr uint64) {
		if c := heard & (1<<tokenNodeShift - 1); ctr > 0 && (tokenNode(heard) != owner || c+lag < ctr) {
			t.Errorf("node %d's %s floor %#x lags node %d's counter %d", node, what, heard, owner, ctr)
		}
	}
	origin := e.m.nodes[0]
	for n := 1; n < len(e.m.nodes); n++ {
		ns := e.m.nodes[n]
		near("request", 0, origin.peers[n].reqFloor, n, ns.reqCtr)
		near("revoke", n, ns.peers[0].revFloor, 0, origin.revCtr)
		near("serve", n, ns.peers[0].serveFloor, n, ns.reqCtr)
	}
	// The bound, measured after every iteration: at most 2 records in 2 slots
	// for one peer, pinned with room at 4 and 6.
	if maxRecs > 4 || maxSlots > 6 {
		t.Errorf("a node held up to %d records in up to %d window slots for one peer; want at most 4 and 6", maxRecs, maxSlots)
	}
	// Pruning must not have cost correctness: the run above already checked
	// every read; duplicates kept arriving throughout and were all absorbed.
	if e.m.Stats().DupsIgnored == 0 {
		t.Errorf("DupsIgnored = 0 with a 30%% duplication rate; dedup never engaged")
	}
}

// TestRevokeBehindRedirectIsApplied is the redirect-window loss. Node 1 holds
// a read copy of a page and a stale route for it; its write upgrade is
// answered with a redirect, and in the instant between that reply's delivery
// and the requester's wake-up a revocation of its copy arrives (the home is
// serving another writer). The revocation must be applied and acked at once:
// a redirect grants nothing, so there is no install to wait behind. With the
// reply's flags read one conjunction at a time, installingFor took the
// redirected request for a granted one, queued the revocation on it, and
// requestFault deleted the request — the revocation was never applied and the
// home's writer parked forever.
func TestRevokeBehindRedirectIsApplied(t *testing.T) {
	for _, proto := range []Protocol{HomeMigrate, DistributedManager} {
		t.Run(proto.String(), func(t *testing.T) {
			e := newEnv(t, 3, protoParams(proto), nil)
			// The lost revocation is a livelock, not a deadlock: node 1 is
			// NACKed by the entry its own missing ack keeps busy, for ever.
			e.eng.SetEventLimit(1_000_000)
			addr := anchoredAddrs(t, e.m, 0, 1)[0]
			vpn := addr.VPN()
			// Hold node 1's first redirect and the first revocation of the
			// page until both are there, then deliver them in one event,
			// reply first: a legal, if unlucky, timing of two connections.
			var reply *pageReply
			var revoke *revokeMsg
			var revokeSrc int
			joined := false
			e.net.SetHandler(1, func(src int, msg fabric.Message) {
				switch mm := msg.(type) {
				case *pageReply:
					if reply == nil && mm.outcome == redirect {
						reply = mm
					}
				case *revokeMsg:
					if revoke == nil && mm.vpn == vpn {
						revoke, revokeSrc = mm, src
					}
				}
				held := !joined && (msg == fabric.Message(reply) || msg == fabric.Message(revoke))
				if held && reply != nil && revoke != nil {
					joined = true
					e.m.HandleMessage(1, 2, reply)
					e.m.HandleMessage(1, revokeSrc, revoke)
				} else if !held {
					e.m.HandleMessage(1, src, msg)
				}
			})
			var final byte
			e.eng.Spawn("main", func(tk *sim.Task) {
				e.write(tk, 0, addr, 1)
				if got := e.read(tk, 1, addr); got != 1 {
					t.Errorf("node 1 read %d, want 1", got)
				}
				e.m.nodes[1].routes.point(vpn, 2, 0) // the stale route
				e.eng.Spawn("writer-1", func(tk *sim.Task) { e.write(tk, 1, addr, 11) })
				e.write(tk, 0, addr, 10)
				tk.Sleep(5 * time.Millisecond)
				final = e.read(tk, 2, addr)
			})
			e.run(t)
			if !joined {
				t.Fatal("the redirect and the revocation never met at node 1; the scenario was not exercised")
			}
			if final != 10 && final != 11 {
				t.Errorf("final read = %d, want one of the two writes (10, 11)", final)
			}
			for n, ns := range e.m.nodes {
				serves := 0
				for i := range ns.peers {
					serves += count(&ns.peers[i].served)
				}
				if revokes, reqs := count(&ns.revokes), count(&ns.reqs); revokes+reqs+serves != 0 {
					t.Errorf("node %d: %d revocations, %d requests, %d serves still open", n, revokes, reqs, serves)
				}
			}
		})
	}
}

// TestDuplicateRequestGetsTheSameReply: under fault injection a duplicated
// page request whose original was redirected is answered with the reply that
// was sent the first time — epoch included, which a reply rebuilt from the
// record's flags used to drop.
func TestDuplicateRequestGetsTheSameReply(t *testing.T) {
	e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1}, distParams())
	addr := anchoredAddrs(t, e.m, 0, 1)[0]
	vpn := addr.VPN()
	e.eng.Spawn("touch", func(tk *sim.Task) {
		e.write(tk, 0, addr, 1)              // first touch at the anchor
		e.m.nodes[2].routes.point(vpn, 0, 5) // node 2 forwards to node 0 at epoch 5
	})
	var replies []*pageReply
	e.net.SetHandler(1, func(src int, msg fabric.Message) {
		if r, ok := msg.(*pageReply); ok {
			replies = append(replies, r)
		}
	})
	o := e.m.e.requests.take() // the request lives in node 1's record
	o.m, o.req = e.m, pageRequest{pid: e.m.pid, vpn: vpn, node: 1, token: nextSeq(1, &e.m.nodes[1].reqCtr), o: o}
	req := &o.req
	e.eng.After(time.Millisecond, func() { e.m.HandleMessage(2, 1, req) })
	e.eng.After(2*time.Millisecond, func() { e.m.HandleMessage(2, 1, req) })
	e.run(t)
	if len(replies) != 2 {
		t.Fatalf("node 1 received %d replies, want the redirect and its re-send", len(replies))
	}
	st := e.m.nodes[2].peers[1].served.get(req.token) // the serve record the reply lives in
	want := pageReply{pid: e.m.pid, token: req.token, outcome: redirect, home: 0, epoch: 5, st: st}
	for i, r := range replies {
		if !reflect.DeepEqual(*r, want) {
			t.Errorf("reply %d = %+v, want %+v", i, *r, want)
		}
	}
	if st := e.m.Stats(); st.Retransmits != 1 || st.Forwards != 1 {
		t.Errorf("Retransmits = %d, Forwards = %d; want one re-send of one bounce", st.Retransmits, st.Forwards)
	}
}

// TestAwaitLoop drives the one wait loop on an engine with no protocol
// traffic: what it re-sends, when, and what it leaves behind.
func TestAwaitLoop(t *testing.T) {
	const us = time.Microsecond
	params := DefaultParams()
	params.RetryTimeout, params.RetryTimeoutMax = 100*us, 350*us
	for _, tc := range []struct {
		name     string
		injector bool
		ackAt    time.Duration // when the ack arrives
		giveUpAt int           // the expiry giveUp says yes at (0: never)
		resends  []time.Duration
		endAt    time.Duration // the run's last event
	}{
		{name: "acked before the first timeout", injector: true, ackAt: 40 * us, endAt: 40 * us},
		{name: "four timeouts", injector: true, ackAt: 1100 * us,
			resends: []time.Duration{100 * us, 300 * us, 650 * us, 1000 * us}, endAt: 1100 * us},
		{name: "give up at the first expiry", injector: true, ackAt: 500 * us, giveUpAt: 1, endAt: 500 * us},
		{name: "give up at the third expiry", injector: true, ackAt: 2000 * us, giveUpAt: 3,
			resends: []time.Duration{100 * us, 300 * us}, endAt: 2000 * us},
		{name: "no injector", ackAt: 10 * time.Millisecond, endAt: 10 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 2, params, nil)
			if tc.injector {
				e = newChaosEnvParams(t, 2, &chaos.Plan{Seed: 1}, params)
			}
			var w waiter
			var resends []time.Duration
			expiries, returnedAt, lateAck := 0, time.Duration(-1), false
			e.eng.Spawn("waiter", func(tk *sim.Task) {
				w.task = tk
				e.m.e.await(tk, &w, sim.ReasonNum("test ", 1), 0, "request",
					func() bool { expiries++; return expiries == tc.giveUpAt },
					func() { resends = append(resends, tk.Now()) })
				returnedAt = tk.Now()
			})
			e.eng.After(tc.ackAt, func() { lateAck = !w.ack() })
			e.run(t)
			if !reflect.DeepEqual(resends, tc.resends) {
				t.Errorf("re-sent at %v, want %v", resends, tc.resends)
			}
			if got := e.m.Stats().Retransmits; got != uint64(len(tc.resends)) {
				t.Errorf("Stats.Retransmits = %d, want %d", got, len(tc.resends))
			}
			gaveUp := tc.giveUpAt > 0
			if lateAck != gaveUp || w.done == gaveUp {
				t.Errorf("gave up: the ack found nothing to close = %v, done = %v; want %v, %v", lateAck, w.done, gaveUp, !gaveUp)
			}
			if wantReturn := tc.ackAt; !gaveUp && returnedAt != wantReturn {
				t.Errorf("await returned at %v, want %v (the ack)", returnedAt, wantReturn)
			}
			if !tc.injector && expiries != 0 {
				t.Errorf("a wait without an injector expired %d times; it must set no timer", expiries)
			}
			// A timer left armed would fire after the ack and stretch the run.
			if now := e.eng.Now(); now != tc.endAt {
				t.Errorf("run ended at %v, want %v: a retry timer outlived its wait", now, tc.endAt)
			}
			if !tc.injector && e.eng.Events() != 3 {
				t.Errorf("%d events without an injector, want 3 (task start, ack, wake-up): a timer was scheduled", e.eng.Events())
			}
		})
	}
}

// TestOutcomeStrings pins the outcome texts of the fault.request and
// origin.serve spans: trace bytes depend on them.
func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[outcome]string{
		grant: "grant", grantData: "grant+data", nack: "nack", stale: "stale", redirect: "redirect",
		deadHome: "dead-home", requesterDead: "dead", moved: "moved", rolledBack: "rollback",
		deadHomeFinalized: "dead-home-finalize",
	} {
		if got := o.String(); got != want {
			t.Errorf("outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
	for o := inFlight; int(o) < len(outcomeNames); o++ {
		if g, b := o.granted(), o.bounced(); g != (o == grant || o == grantData) || b != (o == nack || o == stale || o == redirect) {
			t.Errorf("%v: granted = %v, bounced = %v", o, g, b)
		}
	}
}
