package dsm

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// A steady-state remote write fault that revokes one replica allocates the
// writer's new PTE and nothing else: its four transaction records — the
// request's, the serve's, the revocation's at the home and at the replica —
// come off their free lists, each embeds the messages it sends, the request's
// its landing zone, and the serve's and the applied revocation's the task that
// runs them; the fabric recycles its flights. Every page is anchored at and
// written by node 0 and read at node 2 first, so that the measured write at
// node 1 is served at node 0 in one round trip under every protocol and finds
// a replica to revoke (and the home's own copy, invalidated in place). Where
// homes move the new home's directory entry is one more.
func TestWriteFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100 // testing.AllocsPerRun's warm-up and measured runs
	want := map[Protocol]float64{WriteInvalidate: 1, HomeMigrate: 2, DistributedManager: 2}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		addrs := anchoredAddrs(t, e.m, 0, runs)
		var got float64
		var revokes uint64
		e.eng.Spawn("main", func(tk *sim.Task) {
			for _, a := range addrs {
				e.write(tk, 0, a, 1)
				e.read(tk, 2, a)
			}
			before := e.m.Stats().Invalidations
			p := 0
			got = testing.AllocsPerRun(runs-1, func() {
				e.write(tk, 1, addrs[p], 2)
				p++
			})
			revokes = e.m.Stats().Invalidations - before
		})
		e.run(t)
		if revokes != 2*runs {
			t.Errorf("%v: %d invalidations over %d write faults, want two each", proto, revokes, runs)
		}
		if got != want[proto] {
			t.Errorf("%v: a remote write fault revoking one replica allocates %v objects, want %v", proto, got, want[proto])
		}
	})
}

// Under an injector a write fault that is neither dropped nor duplicated
// allocates what it does without one: its records come off their free lists
// too, though the serving home keeps its serve, and the replica its applied
// revocation, until a later floor passes them, and the requester keeps its
// request until the home's floor does; flights hold what they carry. The
// workload is TestWriteFaultAllocsPerRun's on a fabric with an injector that
// injects nothing.
func TestChaosFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100
	want := map[Protocol]float64{WriteInvalidate: 1, HomeMigrate: 2, DistributedManager: 2}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1}, protoParams(proto))
		addrs := anchoredAddrs(t, e.m, 0, runs)
		var got float64
		var before, after Stats
		e.eng.Spawn("main", func(tk *sim.Task) {
			for _, a := range addrs {
				e.write(tk, 0, a, 1)
				e.read(tk, 2, a)
			}
			before = e.m.Stats()
			p := 0
			got = testing.AllocsPerRun(runs-1, func() {
				e.write(tk, 1, addrs[p], 2)
				p++
			})
			after = e.m.Stats()
		})
		e.run(t)
		if revokes := after.Invalidations - before.Invalidations; revokes != 2*runs {
			t.Errorf("%v: %d invalidations over %d write faults, want two each", proto, revokes, runs)
		}
		if after.Retransmits != before.Retransmits || after.DupsIgnored != before.DupsIgnored {
			t.Errorf("%v: %d retransmits and %d duplicates over the write faults, want none",
				proto, after.Retransmits-before.Retransmits, after.DupsIgnored-before.DupsIgnored)
		}
		if got != want[proto] {
			t.Errorf("%v: under an injector a remote write fault revoking one replica allocates %v objects, want %v", proto, got, want[proto])
		}
	})
}

// A steady-state remote read fault allocates the reader's new PTE and nothing
// else: the request's and the serve's records come off their free lists and
// the page's frame is shared, not copied. Every page is anchored at and
// written by node 0 first, so that node 1's read is served there in one round
// trip under every protocol.
func TestReadFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		addrs := anchoredAddrs(t, e.m, 0, runs)
		var got float64
		var reads, serves uint64
		e.eng.Spawn("main", func(tk *sim.Task) {
			for _, a := range addrs {
				e.write(tk, 0, a, 1)
			}
			before := e.m.Stats()
			p := 0
			got = testing.AllocsPerRun(runs-1, func() {
				e.read(tk, 1, addrs[p])
				p++
			})
			reads, serves = e.m.Stats().ReadFaults-before.ReadFaults, e.m.Stats().DirServes-before.DirServes
		})
		e.run(t)
		if reads != runs || serves != runs {
			t.Errorf("%v: %d read faults, %d serves, want %d each", proto, reads, serves, runs)
		}
		if got != 1 {
			t.Errorf("%v: a remote read fault allocates %v objects, want 1", proto, got)
		}
	})
}

// A fault that is bounced allocates nothing for the bounce: the reply that
// turns it away is its serve record's, and the retry takes its records off
// the free lists again. Nodes 1 and 2 write-fault on a page of node 0's at
// once: the first request opens the grant window, so the second is NACKed
// and retries after its backoff — where homes move, at node 0 again, which
// redirects it to node 1, the page's home by then. Each fault's PTE is
// allocated, and where homes move each new home's directory entry; the
// path-compression hint the redirected fault sends node 0 comes off its free
// list.
func TestBouncedFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100
	want := map[Protocol]float64{WriteInvalidate: 2, HomeMigrate: 4, DistributedManager: 4}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		addrs := anchoredAddrs(t, e.m, 0, runs)
		p, done := 0, false
		var main *sim.Task
		rival := e.eng.Spawn("rival", func(tk *sim.Task) {
			for {
				tk.Park("next page")
				e.write(tk, 2, addrs[p], 2)
				done = true
				main.Unpark()
			}
		})
		var got float64
		var before, after Stats
		main = e.eng.Spawn("main", func(tk *sim.Task) {
			for _, a := range addrs {
				e.write(tk, 0, a, 0)
			}
			before = e.m.Stats()
			got = testing.AllocsPerRun(runs-1, func() {
				done = false
				rival.Unpark()
				e.write(tk, 1, addrs[p], 1)
				for !done {
					tk.Park("rival's write")
				}
				p++
			})
			after = e.m.Stats()
			rival.Kill()
		})
		e.run(t)
		if nacks := after.Nacks - before.Nacks; nacks != runs {
			t.Errorf("%v: %d NACKs over %d contended page pairs, want one each", proto, nacks, runs)
		}
		if fwd := after.Forwards - before.Forwards; proto != WriteInvalidate && fwd != runs {
			t.Errorf("%v: %d redirects over %d contended page pairs, want one each", proto, fwd, runs)
		}
		if got != want[proto] {
			t.Errorf("%v: two contending write faults, one bounced, allocate %v objects, want %v", proto, got, want[proto])
		}
	})
}

// The transaction records stay in their size classes: a field added to one
// must not silently move every request or revocation into a larger class.
// Each bound is a size class; what a record embeds (a landing zone, a task)
// is bytes it no longer allocates beside it, and a revocation's ack is the
// revocation sent back, no bytes of the applied revocation's.
func TestRecordsSizeof(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"outstanding", unsafe.Sizeof(outstanding{}), 240},
		{"serveState", unsafe.Sizeof(serveState{}), 256},
		{"revokeWaiter", unsafe.Sizeof(revokeWaiter{}), 112},
		{"pull", unsafe.Sizeof(pull{}), 160},
		{"appliedRevoke", unsafe.Sizeof(appliedRevoke{}), 176},
	} {
		if r.size > r.max {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, past its %d-byte size class", r.name, r.size, r.max)
		}
	}
}

// Every landing zone is claimed or released, whatever the fabric does to the
// exchange that prepared it: after floorWorkload's drops, duplicates, delays
// and crash, each connection between live nodes has its whole sink pool back
// at quiescence. A zone lives in its record (a request's, a pull's), so a
// path that drops a record without releasing its zone leaks a chunk here.
func TestChaosSinkChunksReturn(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		floorRuns(t, proto, func(t *testing.T, seed int64, anchor int) {
			e := floorWorkload(t, proto, seed, anchor, true, nil)
			e.run(t)
			if e.net.Stats().PageSends == 0 {
				t.Fatalf("seed %d: no page crossed the fabric", seed)
			}
			chunks := e.net.Params().SinkChunks
			for src := 0; src < 4; src++ {
				for dst := 0; dst < 4; dst++ {
					if src == dst {
						continue
					}
					if free := e.net.SinkFree(src, dst); free != chunks {
						t.Errorf("seed %d: link %d->%d: %d of %d sink chunks free at quiescence", seed, src, dst, free, chunks)
					}
				}
			}
		})
	})
}

// checkRefs fails t if, at quiescence, a frame's reference count is not the
// number of its holders found — PTEs, and the serve and revocation records'
// re-send pages — or a frame mapped writable has another holder, or a
// reference is counted on a frame nobody holds, or a pooled frame is held,
// counted or pooled twice.
func checkRefs(t *testing.T, m *Manager, run string) {
	t.Helper()
	type holding struct {
		frame    []byte
		holders  []string
		writable bool
	}
	held := make(map[*byte]*holding)
	hold := func(f []byte, who string, writable bool) {
		if f == nil {
			return
		}
		h := held[&f[0]]
		if h == nil {
			h = &holding{frame: f}
			held[&f[0]] = h
		}
		h.holders = append(h.holders, who)
		h.writable = h.writable || writable
	}
	for n, ns := range m.nodes {
		ns.pt.ForEach(func(vpn uint64, pte *mem.PTE) bool {
			if pte.Present {
				hold(pte.Frame, fmt.Sprintf("node %d's PTE of vpn %#x", n, vpn), pte.Writable)
			}
			return true
		})
		for src := range ns.peers {
			p := &ns.peers[src]
			for _, st := range p.served.recs {
				if st != nil {
					hold(st.data, fmt.Sprintf("node %d's serve of token %#x", n, st.req.token), false)
				}
			}
			for _, r := range p.applied.recs {
				if r != nil {
					hold(r.data, fmt.Sprintf("node %d's revocation %#x", n, r.msg.seq), false)
				}
			}
		}
	}
	shared := 0
	for _, h := range held {
		refs := m.frames.Refs(h.frame)
		if refs > 1 {
			shared++
		}
		if refs != len(h.holders) {
			t.Errorf("%s: a frame has %d references and %d holders: %s", run, refs, len(h.holders), strings.Join(h.holders, ", "))
		}
		if h.writable && len(h.holders) != 1 {
			t.Errorf("%s: a frame mapped writable has %d holders: %s", run, len(h.holders), strings.Join(h.holders, ", "))
		}
	}
	if n := m.frames.SharedFrames(); n != shared {
		t.Errorf("%s: %d frames counted shared, %d found shared: a reference outlived its holder", run, n, shared)
	}
	for f := range m.frames.All() {
		if h := held[&f[0]]; h != nil {
			t.Errorf("%s: a pooled frame is held by %s", run, strings.Join(h.holders, ", "))
		}
		held[&f[0]] = &holding{frame: f, holders: []string{"the frame pool"}}
	}
}

// Every frame reference has one holder after floorWorkload's drops,
// duplicates, delays and crash; its re-sent revocations find their records'
// pages, so a re-ack that sent its record's page without a reference of its
// own, or a holder that released twice, shows here. That
// workload never leaves a settled entry idle at a dead home, so one more run
// does: node 1 serves node 2 a write grant with data, and as node 2's install
// ack reaches node 1 both die. The serve rolls back to node 1 with its
// snapshot's bytes, and the entry, idle at a dead home, is rebuilt at its
// live anchor from the snapshot too: under dist in a rebuild that settle
// defers until the lanes are quiescent, after the serving task has ended. A
// snapshot that task released before the rebuild ran is released twice.
func TestChaosFramesHaveOneOwner(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		floorRuns(t, proto, func(t *testing.T, seed int64, anchor int) {
			e := floorWorkload(t, proto, seed, anchor, true, nil)
			e.run(t)
			checkRefs(t, e.m, fmt.Sprintf("seed %d", seed))
		})
		if proto == WriteInvalidate {
			return // the origin serves every page, and cannot die
		}
		e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1}, protoParams(proto))
		inj := e.net.Chaos()
		for n := 0; n < 3; n++ {
			node := n
			e.net.SetHandler(node, func(src int, msg fabric.Message) {
				if _, ok := msg.(*installAck); ok && node == 1 && src == 2 && !inj.NodeDead(1) {
					inj.MarkDead(1)
					inj.MarkDead(2)
					return
				}
				e.m.HandleMessage(node, src, msg)
			})
		}
		e.eng.Spawn("main", func(tk *sim.Task) {
			e.write(tk, 1, testAddr, 1)
			e.write(tk, 2, testAddr, 2)
			tk.Sleep(time.Millisecond) // the rollback and the rebuild
			for _, n := range []int{1, 2} {
				if _, err := e.m.ReclaimDeadNode(n); err != nil {
					t.Errorf("ReclaimDeadNode(%d): %v", n, err)
				}
			}
			if got := e.read(tk, 0, testAddr); got != 1 {
				t.Errorf("node 0 reads %d after the rebuild, want the grant's 1", got)
			}
		})
		e.run(t)
		if lost := e.m.Stats().PagesLost; lost != 0 {
			t.Errorf("%d pages lost, want the page rebuilt from the snapshot", lost)
		}
		checkRefs(t, e.m, "grant window closed by two deaths")
	})
}

// Under an injector the serving home keeps the page a write grant carried
// until the requester's install ack arrives, to re-send the grant if it is
// lost, so the requester's install finds the frame still shared and maps a
// copy. Node 2 write-faults on a page node 1 wrote, installs and writes; the
// home drops its first install ack, times out and re-sends: the re-sent page
// must still be the grant's bytes, not node 2's write.
func TestChaosResentGrantCarriesOldBytes(t *testing.T) {
	e := newChaosEnv(t, 3, &chaos.Plan{Seed: 1})
	var token uint64
	resent := 0
	for n := 0; n < 3; n++ {
		node := n
		e.net.SetHandler(node, func(src int, msg fabric.Message) {
			switch mm := msg.(type) {
			case *installAck:
				if node == 0 && src == 2 && token == 0 {
					token = mm.token // the first ack of node 2's grant is lost
					return
				}
			case *pageReply:
				if node == 2 && token != 0 && mm.token == token {
					resent++
					st := e.m.nodes[0].peers[2].served.get(token)
					if st == nil || st.data == nil {
						t.Fatalf("the home re-sent token %#x without its page", token)
					}
					if st.data[testAddr.PageOff()] != 1 {
						t.Errorf("the re-sent grant carries %d, want the granted 1", st.data[testAddr.PageOff()])
					}
					if pte := e.m.nodes[2].pt.Lookup(testAddr.VPN()); &pte.Frame[0] == &st.data[0] {
						t.Error("node 2 maps the frame the home keeps to re-send")
					}
				}
			}
			e.m.HandleMessage(node, src, msg)
		})
	}
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 1)
		e.write(tk, 2, testAddr, 2) // pulled from node 1 and granted with its data
		tk.Sleep(time.Millisecond)  // the home's retransmit timeout
		if got := e.read(tk, 0, testAddr); got != 2 {
			t.Errorf("node 0 reads %d, want node 2's 2", got)
		}
	})
	e.run(t)
	if resent == 0 {
		t.Fatal("the home never re-sent the grant")
	}
	if copies := e.m.frames.Copies(); copies == 0 {
		t.Error("node 2's install mapped the shared frame without a copy")
	}
	checkRefs(t, e.m, "re-sent grant")
}

// checkRecords fails t unless, at quiescence, every record rc ever made is
// on its free list once, held by no one; or kept — listed in a window, or
// pointed into by a record that is — and held, not on the list; or neither,
// stranded by a crash: a window it reset, a task it killed. It returns how
// many are stranded.
func checkRecords[T any, P recyclable[T]](t *testing.T, run, kind string, rc *recycler[T, P], kept map[P]bool) int {
	t.Helper()
	free := make(map[P]bool, len(rc.free))
	for _, r := range rc.free {
		if free[r] {
			t.Errorf("%s: %v is on the %s free list twice", run, r, kind)
		}
		free[r] = true
		if h := *r.held(); h != 0 {
			t.Errorf("%s: %v is on the %s free list with %d holders", run, r, kind, h)
		}
	}
	for r := range kept {
		if free[r] {
			t.Errorf("%s: %v is kept by a window and on the %s free list", run, r, kind)
		} else if h := *r.held(); h <= 0 {
			t.Errorf("%s: %v is kept by a window with %d holders", run, r, h)
		}
	}
	stranded := rc.made - len(free) - len(kept)
	if stranded < 0 {
		t.Errorf("%s: %d %s records on the free list and %d kept, of %d made", run, len(free), kind, len(kept), rc.made)
	}
	return stranded
}

// checkAllRecords runs checkRecords on each free list of m, with the records
// m's windows keep, and returns how many records are stranded.
func checkAllRecords(t *testing.T, m *Manager, run string) int {
	t.Helper()
	reqs, serves, applied := map[*outstanding]bool{}, map[*serveState]bool{}, map[*appliedRevoke]bool{}
	waits, pulls := map[*revokeWaiter]bool{}, map[*pull]bool{}
	keepWait := func(w *revokeWaiter) {
		if w.msg.pull != nil {
			pulls[w.msg.pull] = true
		} else {
			waits[w] = true
		}
	}
	for _, ns := range m.nodes {
		for _, o := range ns.reqs.recs {
			if o != nil {
				reqs[o] = true
			}
		}
		for _, w := range ns.revokes.recs {
			if w != nil {
				keepWait(w)
			}
		}
		for src := range ns.peers {
			p := &ns.peers[src]
			for _, st := range p.served.recs {
				if st != nil {
					serves[st], reqs[st.req.o] = true, true
				}
			}
			for _, r := range p.applied.recs {
				if r != nil {
					applied[r] = true
					keepWait(r.msg.w)
				}
			}
			for _, o := range p.installed.recs {
				if o != nil {
					reqs[o] = true
				}
			}
		}
	}
	rs := &m.e
	return checkRecords(t, run, "request", &rs.requests, reqs) +
		checkRecords(t, run, "serve", &rs.serves, serves) +
		checkRecords(t, run, "revocation", &rs.waits, waits) +
		checkRecords(t, run, "pull", &rs.pulls, pulls) +
		checkRecords(t, run, "applied revocation", &rs.applied, applied) +
		checkRecords(t, run, "hint", &rs.hints, nil)
}

// Every record goes back to its free list once its transaction is over and
// no window keeps it for duplicates: after floorWorkload's program, under
// every protocol and on the pages anchored at every node, each record ever
// made is on its list once, kept by a window, or stranded by the crash. On a
// fabric that loses nothing no window keeps any and nothing is stranded; with
// drops, duplicates and the crash, nothing is stranded unless a node died. A
// holder that never lets go leaves a record out; a release too early puts a
// kept one on its list, or panics at the next hold or release.
func TestRecordsRecycledAtQuiescence(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		floorRuns(t, proto, func(t *testing.T, seed int64, anchor int) {
			for _, injector := range []bool{false, true} {
				var e *env
				if injector {
					e = floorWorkload(t, proto, seed, anchor, true, nil)
				} else {
					e = newEnvSeed(t, 4, protoParams(proto), nil, seed)
					floorTasks(t, e, seed, anchor, false)
				}
				e.run(t)
				run := fmt.Sprintf("seed %d, injector %v", seed, injector)
				rs := &e.m.e
				if rs.requests.made == 0 || rs.serves.made == 0 || rs.applied.made == 0 {
					t.Fatalf("%s: %d request, %d serve and %d applied revocation records made; the workload exercises nothing",
						run, rs.requests.made, rs.serves.made, rs.applied.made)
				}
				stranded := checkAllRecords(t, e.m, run)
				if dead := injector && e.net.Chaos().NodeDead(1); stranded > 0 && !dead {
					t.Errorf("%s: %d records stranded, and no node died", run, stranded)
				}
			}
		})
	})
}

// A record released more often than it has holders panics, naming itself.
func TestRecordReleasedTwicePanics(t *testing.T) {
	var rs engine
	o := rs.requests.take()
	o.req.token = 0x1000000000007
	hold(o)
	if rs.requests.release(o) || !rs.requests.release(o) {
		t.Fatal("a request's second holder did not put it back")
	}
	r, panicked := panics(func() { rs.requests.release(o) })
	if want := "dsm: request 0x1000000000007 released twice"; !panicked || r != want {
		t.Errorf("third release of a two-holder request: panicked %v with %v, want %q", panicked, r, want)
	}
	p := rs.pulls.take()
	p.msg.seq = 0x2000000000003
	rs.pulls.release(p)
	r, panicked = panics(func() { rs.pulls.release(p) })
	if want := "dsm: revocation 0x2000000000003 released twice"; !panicked || r != want {
		t.Errorf("second release of a pull: panicked %v with %v, want %q", panicked, r, want)
	}
}

// A record held once it is back on its free list panics, naming itself: a
// window, a record or a flight that reaches it outlived its last holder.
// The flight's hold comes through the message (fabric.Held).
func TestRecordHeldAfterReleasePanics(t *testing.T) {
	var m Manager
	m.e.m = &m
	st := m.e.serves.take()
	st.m, st.reply.token = &m, 0x3000000000005
	st.reply.st = st
	o := m.e.requests.take()
	o.m, o.req.o, st.req = &m, o, &o.req
	st.reply.Hold() // a flight of its reply
	st.release()    // its task
	if len(m.e.serves.free) != 0 {
		t.Fatal("a serve went back with its reply in flight")
	}
	st.reply.Release() // the flight retires
	if len(m.e.serves.free) != 1 || len(m.e.requests.free) != 1 {
		t.Fatalf("the serve's last holder left %d serves and %d requests on their free lists, want 1 and 1 (the request it held)",
			len(m.e.serves.free), len(m.e.requests.free))
	}
	r, panicked := panics(func() { st.reply.Hold() })
	if want := "dsm: serve of request 0x3000000000005 held after release"; !panicked || r != want {
		t.Errorf("a flight taken for a recycled serve's reply: panicked %v with %v, want %q", panicked, r, want)
	}
	var w window[*outstanding]
	r, panicked = panics(func() { w.put(o.req.token, o) })
	if want := "dsm: request 0x0 held after release"; !panicked || r != want {
		t.Errorf("a window listing a recycled request: panicked %v with %v, want %q", panicked, r, want)
	}
}
