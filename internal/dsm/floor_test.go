package dsm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// openBelow returns a record of w that is not over and whose number is below
// floor, if there is one.
func openBelow[T record](w *window[T], floor uint64) (uint64, bool) {
	var none T
	for i, r := range w.recs {
		if seq := w.base + uint64(i); seq < floor && r != none && !r.over() {
			return seq, true
		}
	}
	return 0, false
}

// checkFloor is the test's hook at every floor receipt: msg arrives at node
// from src, and the floor it carries — every request, revocation and reply
// carries one under an injector — must be a lower bound on what its issuer
// still has open — its requests, its revocation waits, or (for a page reply)
// the serves of node's tokens open at src and node's requests to src, which
// src may yet open. It reports the kind of floor checked, "" for none.
func checkFloor(t *testing.T, m *Manager, node, src int, msg fabric.Message) string {
	t.Helper()
	fail := func(kind string, floor, seq uint64) {
		t.Errorf("%s floor %#x from node %d at node %d: %#x is still open below it", kind, floor, src, node, seq)
	}
	switch mm := msg.(type) {
	case *pageRequest:
		if seq, ok := openBelow(&m.nodes[src].reqs, mm.floor); ok {
			fail("request", mm.floor, seq)
		}
		return "request"
	case *revokeMsg:
		if seq, ok := openBelow(&m.nodes[src].revokes, mm.floor); ok {
			fail("revoke", mm.floor, seq)
		}
		return "revoke"
	case *pageReply:
		if seq, ok := openBelow(&m.nodes[src].peers[node].served, mm.floor); ok {
			fail("serve", mm.floor, seq)
		}
		for _, o := range m.nodes[node].reqs.recs {
			if o != nil && o.home == src && o.req.token < mm.floor {
				fail("serve", mm.floor, o.req.token)
			}
		}
		return "serve"
	}
	return ""
}

// floorWorkload builds the random concurrent workload of
// TestFloorsAreLowerBounds on four nodes under 10 % drops, 30 % duplicates
// and 20 µs delay jitter, on six pages anchored at node anchor: node 1
// writes four of them first, so that it holds them (and, where homes move, is
// their home), then six workers on nodes 0, 2 and 3 read and write them at
// random. With crash, node 1 dies at 2 ms, is reclaimed 1 ms later, and the
// two pages nobody touched are read from nodes 0 and 3. Nothing in a unit
// test stops a task on a dead node, so the harness is sound only where node
// 1's writes finished before it died: where they did not, the crash is called
// off and the run says so in the log. hook, if set, sees every message before
// the manager does. The caller runs the engine.
func floorWorkload(t *testing.T, proto Protocol, seed int64, anchor int, crash bool, hook func(node, src int, msg fabric.Message)) *env {
	t.Helper()
	const nodes = 4
	plan := &chaos.Plan{
		Seed:  seed,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3, Jitter: chaos.Duration(20 * time.Microsecond)}},
	}
	e := newChaosEnvParams(t, nodes, plan, protoParams(proto))
	if hook != nil {
		for n := 0; n < nodes; n++ {
			node := n
			e.net.SetHandler(node, func(src int, msg fabric.Message) {
				hook(node, src, msg)
				e.m.HandleMessage(node, src, msg)
			})
		}
	}
	floorTasks(t, e, seed, anchor, crash)
	return e
}

// floorTasks spawns floorWorkload's tasks on e, a four-node env: without an
// injector its program runs on a fabric that loses nothing, and crash must be
// false.
func floorTasks(t *testing.T, e *env, seed int64, anchor int, crash bool) {
	t.Helper()
	const doomed = 1
	e.eng.SetEventLimit(1_000_000) // a run takes 2,400–4,700
	addrs := anchoredAddrs(t, e.m, anchor, 6)
	addrs, fresh := addrs[:4], addrs[4:]
	rng := rand.New(rand.NewSource(seed))
	written := false
	e.eng.Spawn("doomed", func(tk *sim.Task) {
		for _, a := range addrs {
			e.write(tk, doomed, a, 1)
		}
		written = true
	})
	for w := 0; w < 6; w++ {
		node := []int{0, 2, 3}[w%3]
		type op struct {
			addr  mem.Addr
			write bool
			pause time.Duration
		}
		ops := make([]op, 40)
		for i := range ops {
			ops[i] = op{addrs[rng.Intn(len(addrs))] + mem.Addr(rng.Intn(mem.PageSize)), rng.Intn(3) == 0,
				time.Duration(rng.Intn(20)) * time.Microsecond}
		}
		e.eng.SpawnAfter("worker", 100*time.Microsecond, func(tk *sim.Task) {
			for i, op := range ops {
				if op.write {
					e.write(tk, node, op.addr, byte(i))
				} else {
					_ = e.read(tk, node, op.addr)
				}
				tk.Sleep(op.pause)
			}
		})
	}
	if !crash {
		return
	}
	e.eng.SpawnAfter("crash", 2*time.Millisecond, func(tk *sim.Task) {
		if !written {
			t.Logf("seed %d, anchor %d: node %d is still writing at 2ms; the crash is called off", seed, anchor, doomed)
			return
		}
		e.net.Chaos().MarkDead(doomed)
		tk.Sleep(time.Millisecond) // the lease layer's detection delay
		if _, err := e.m.ReclaimDeadNode(doomed); err != nil {
			t.Errorf("seed %d: ReclaimDeadNode: %v", seed, err)
		}
		for _, a := range fresh {
			_ = e.read(tk, 0, a)
			_ = e.read(tk, 3, a)
		}
	})
}

// floorRuns runs fn on floorWorkload's pages anchored at each node of proto's
// anchor ring in turn, seeds 1–12 each: the doomed node 1 is then, page by
// page, home and anchor at once, or home with its anchor a survivor.
func floorRuns(t *testing.T, proto Protocol, fn func(t *testing.T, seed int64, anchor int)) {
	for _, anchor := range newEnv(t, 4, protoParams(proto), nil).m.dir.anchors {
		t.Run(fmt.Sprintf("anchor%d", anchor), func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				fn(t, seed, anchor)
			}
		})
	}
}

// TestFloorsAreLowerBounds runs floorWorkload, with the crash, under every
// protocol and on the pages anchored at every node, and checks at every
// message that carries a floor that its issuer holds nothing open below it:
// the floor is a cumulative acknowledgement, and a window trimmed by one that
// is not would forget a live exchange. Each run ends in CheckInvariants.
func TestFloorsAreLowerBounds(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		floorRuns(t, proto, func(t *testing.T, seed int64, anchor int) {
			checked := map[string]int{}
			var e *env
			e = floorWorkload(t, proto, seed, anchor, true, func(node, src int, msg fabric.Message) {
				if kind := checkFloor(t, e.m, node, src, msg); kind != "" {
					if floorOf(msg) == 0 {
						t.Errorf("seed %d: a %s message from node %d carries no floor", seed, kind, src)
					}
					checked[kind]++
				}
			})
			if err := e.eng.Run(); err != nil {
				t.Fatalf("seed %d: engine: %v", seed, err)
			}
			if err := e.m.CheckInvariants(); err != nil {
				t.Errorf("seed %d: invariants: %v", seed, err)
			}
			if checked["request"] == 0 || checked["revoke"] == 0 || checked["serve"] == 0 {
				t.Errorf("seed %d: floors checked %v; every kind should have been heard", seed, checked)
			}
		})
	})
}

// TestLivelocksFinish runs floorWorkload on the seeds where each of four
// livelocks once held it to the event limit, one row per cause.
func TestLivelocksFinish(t *testing.T) {
	for _, c := range []struct {
		name   string
		proto  Protocol
		seed   int64
		anchor int
		crash  bool
	}{
		// A write fault at the home stamped its revocations with the next
		// epoch, which the next real handoff then claimed for another node.
		{"dist: two homes at one epoch", DistributedManager, 8, 1, false},
		// A node's read fault, redirected to itself after its own write grant
		// installed, asked the anchor again and again.
		{"dist: a home asks the anchor for its own page", DistributedManager, 11, 1, false},
		// The origin, holding no route for a page its own table homes
		// elsewhere, targeted its anchor, itself, and re-faulted every 2 µs.
		{"home: the origin targets itself", HomeMigrate, 2, 0, true},
		// The anchor's route led to a node whose own had led through the dead
		// one; with that link gone the two redirected to each other. The
		// reclaim now tells every page's anchor where its entry is.
		{"dist: two live nodes redirect to each other", DistributedManager, 687, 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := floorWorkload(t, c.proto, c.seed, c.anchor, c.crash, nil)
			e.run(t)
		})
	}
}

// floorOf is the floor a protocol message carries, 0 for one that carries none.
func floorOf(msg fabric.Message) uint64 {
	switch mm := msg.(type) {
	case *pageRequest:
		return mm.floor
	case *revokeMsg:
		return mm.floor
	case *pageReply:
		return mm.floor
	}
	return 0
}

// FuzzDedupState drives one pair of nodes through random exchanges — node 1's
// page requests served at node 0, node 0's revocations applied at node 1 —
// with copies of old messages delivered at any point, not only in the order a
// connection would deliver them, and holds the engine's answers to a model
// that keeps every record forever. A fresh message is never turned away. A
// copy of an old one is answered as the model answers it or turned away as
// stale, and never served or applied fresh; while its sender may still be
// waiting for the answer, it is answered exactly as the model answers it.
// Each byte is one step, b%10 what happens and b/10 to which exchange; the
// corpus (testdata/fuzz/FuzzDedupState) walks a lost bounce, a floor that
// stops at an exchange its requester still waits for, a grant window
// outliving the requester's floor, and a revocation re-acked then forgotten.
// No serve or revocation task runs, so no record the model points at — each
// held by a serve or an applied revocation that never lets go — is reused.
func FuzzDedupState(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := newChaosEnvParams(t, 2, &chaos.Plan{Seed: 1}, DefaultParams())
		m := e.m
		const home, requester = 0, 1
		type request struct {
			o       *outstanding
			msg     *pageRequest // every copy shares the floor it was built with
			st      *serveState
			granted bool // the home's answer, once it has one
			got     bool // the requester has the answer: its record is closed
			closed  bool // the home's serve is over (a grant's window too)
		}
		type revoke struct {
			msg             *revokeMsg
			rec             *appliedRevoke // the target's record
			applied, closed bool           // at the target; the issuer's wait
		}
		var reqs []*request
		var revs []*revoke
		// answer runs deliver and reports what it did: re-sent an answer,
		// ignored the copy, or neither.
		answer := func(deliver func()) (resent, ignored bool) {
			before := m.Stats()
			deliver()
			after := m.Stats()
			return after.Retransmits > before.Retransmits, after.DupsIgnored > before.DupsIgnored
		}
		check := func(what string, seq uint64, resent, ignored, modelResends, exact bool) {
			switch {
			case resent == ignored:
				t.Fatalf("%s %#x: re-sent %v, ignored %v; want exactly one", what, seq, resent, ignored)
			case exact && resent != modelResends, resent && !modelResends:
				t.Fatalf("%s %#x: re-sent %v, the model re-sends %v (sender waiting: %v)", what, seq, resent, modelResends, exact)
			}
		}
		for i, b := range ops {
			op, arg := b%10, int(b/10)
			var r *request
			if len(reqs) > 0 {
				r = reqs[arg%len(reqs)]
			}
			var v *revoke
			if len(revs) > 0 {
				v = revs[arg%len(revs)]
			}
			switch {
			case op == 0: // a new request reaches the home
				ns := m.nodes[requester]
				tok := nextSeq(requester, &ns.reqCtr)
				o := m.e.requests.take()
				o.m, o.home, o.req = m, home, pageRequest{pid: m.pid, vpn: uint64(i), node: requester, token: tok, o: o}
				msg := &o.req
				ns.reqs.put(msg.token, o)
				msg.floor = m.e.floor(ns.reqs.base)
				st := m.e.admitServe(home, msg)
				if st == nil {
					t.Fatalf("fresh request %#x turned away", msg.token)
				}
				reqs = append(reqs, &request{o: o, msg: msg, st: st})
			case op <= 2 && r != nil && r.st.reply.outcome == inFlight: // the home answers
				if op == 1 {
					m.e.bounce(r.st, nack, 0, 0)
					r.closed = true
				} else { // a grant, whose window opens
					r.st.reply.outcome, r.st.reply.floor, r.granted = grant, m.e.serveFloor(r.st), true
				}
			case op == 3 && r != nil && r.st.reply.outcome != inFlight && !r.got: // the answer reaches the requester
				m.e.deliverReply(requester, home, &r.st.reply)
				if r.granted {
					m.e.installed(requester, r.o)
				} else {
					m.e.forget(requester, r.o)
				}
				r.got = true
			case op == 3 && r != nil && r.got: // a copy of it does
				resent, ignored := answer(func() { m.e.deliverReply(requester, home, &r.st.reply) })
				check("reply", r.msg.token, resent, ignored, r.granted, r.granted && !r.closed)
			case op == 4 && r != nil && r.granted && r.got && !r.closed: // the install ack closes the window
				m.e.closeServe(r.st)
				r.closed = true
			case op == 5 && r != nil: // a copy of a request reaches the home
				var fresh *serveState
				resent, ignored := answer(func() { fresh = m.e.admitServe(home, r.msg) })
				if fresh != nil {
					t.Fatalf("copy of request %#x served fresh", r.msg.token)
				}
				check("request", r.msg.token, resent, ignored, r.closed && !r.granted, !r.got)
			case op == 6: // a new revocation reaches its target
				ns := m.nodes[home]
				w := m.e.waits.take()
				w.m, w.target, w.msg = m, requester, revokeMsg{pid: m.pid, vpn: uint64(i), seq: nextSeq(home, &ns.revCtr), home: home, newHome: -1, w: w}
				msg := &w.msg
				ns.revokes.put(msg.seq, w)
				msg.floor = m.e.floor(ns.revokes.base)
				rec := m.e.revokeArrived(requester, msg)
				if rec == nil {
					t.Fatalf("fresh revocation %#x turned away", msg.seq)
				}
				revs = append(revs, &revoke{msg: msg, rec: rec})
			case op == 7 && v != nil && !v.applied: // the target applies it
				m.e.revokeApplied(v.rec, nil)
				v.applied = true
			case op == 8 && v != nil && v.applied && !v.closed: // its ack closes the issuer's wait
				m.nodes[home].revokes.del(v.msg.seq)
				v.closed = true
			case op == 9 && v != nil: // a copy of a revocation reaches its target
				var fresh *appliedRevoke
				resent, ignored := answer(func() { fresh = m.e.revokeArrived(requester, v.msg) })
				if fresh != nil {
					t.Fatalf("copy of revocation %#x applied fresh", v.msg.seq)
				}
				check("revocation", v.msg.seq, resent, ignored, v.applied, !v.closed)
			}
		}
	})
}
