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

// A steady-state remote write fault that revokes one replica allocates its
// four transaction records — the request's, the serve's, the revocation's at
// the home and at the replica — and the writer's new PTE, and nothing else:
// each record embeds the messages it sends, the request's its landing zone,
// and the serve's and the applied revocation's the task that runs them (a
// record is its task's body); the fabric recycles its flights. Every page is
// written at node 0 and read at node 2 first, so that the measured write at
// node 1 finds a replica to revoke (and the home's own copy, invalidated in
// place). Where homes move the new home's directory entry is one more, and
// some faults are redirected (a second request and serve record) and compress
// the chain they walked.
func TestWriteFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100 // testing.AllocsPerRun's warm-up and measured runs
	want := map[Protocol]float64{WriteInvalidate: 5, HomeMigrate: 6, DistributedManager: 6}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		addr := func(p int) mem.Addr { return testAddr + mem.Addr(p*mem.PageSize) }
		var got float64
		var revokes uint64
		e.eng.Spawn("main", func(tk *sim.Task) {
			for p := 0; p < runs; p++ {
				e.write(tk, 0, addr(p), 1)
				e.read(tk, 2, addr(p))
			}
			before := e.m.Stats().Invalidations
			p := 0
			got = testing.AllocsPerRun(runs-1, func() {
				e.write(tk, 1, addr(p), 2)
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

// The transaction records stay in their size classes: a field added to one
// must not silently move every request or revocation into a larger class.
// Each bound is a size class; what a record embeds (a landing zone, a task)
// is bytes it no longer allocates beside it.
func TestRecordsSizeof(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"outstanding", unsafe.Sizeof(outstanding{}), 240},
		{"serveState", unsafe.Sizeof(serveState{}), 256},
		{"revokeWaiter", unsafe.Sizeof(revokeWaiter{}), 112},
		{"pull", unsafe.Sizeof(pull{}), 160},
		{"appliedRevoke", unsafe.Sizeof(appliedRevoke{}), 192},
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
