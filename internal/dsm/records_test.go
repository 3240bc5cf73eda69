package dsm

import (
	"fmt"
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
// place). Under dist the new home's directory entry is one more, and some
// faults are redirected (a second request and serve record) and compress the
// chain they walked.
func TestWriteFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100 // testing.AllocsPerRun's warm-up and measured runs
	want := map[Protocol]float64{WriteInvalidate: 5, HomeMigrate: 5, DistributedManager: 6}
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
		for seed := int64(1); seed <= 12; seed++ {
			if proto == HomeMigrate && (seed == 8 || seed == 12) {
				continue // floorWorkload's doomed writer is still writing at the crash
			}
			e := floorWorkload(t, proto, seed, true, nil)
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
		}
	})
}

// checkOneOwner fails t if, at quiescence, any frame is held twice: mapped at
// two nodes, mapped and kept by a record as its re-send snapshot, kept by two
// records, pooled while anything else holds it, or pooled twice.
func checkOneOwner(t *testing.T, m *Manager, run string) {
	t.Helper()
	owners := make(map[*byte]string)
	hold := func(f []byte, who string) {
		if f == nil {
			return
		}
		if prev, ok := owners[&f[0]]; ok {
			t.Errorf("%s: one frame is held by %s and by %s", run, prev, who)
		}
		owners[&f[0]] = who
	}
	for n, ns := range m.nodes {
		ns.pt.ForEach(func(vpn uint64, pte *mem.PTE) bool {
			if pte.Present {
				hold(pte.Frame, fmt.Sprintf("node %d's PTE of vpn %#x", n, vpn))
			}
			return true
		})
		for src := range ns.peers {
			p := &ns.peers[src]
			for _, st := range p.served.recs {
				if st != nil {
					hold(st.data, fmt.Sprintf("node %d's serve of token %#x", n, st.req.token))
				}
			}
			for _, r := range p.applied.recs {
				if r != nil {
					hold(r.data, fmt.Sprintf("node %d's revocation %#x", n, r.msg.seq))
				}
			}
		}
	}
	for f := range m.frames.All() {
		hold(f, "the frame pool")
	}
}

// Every frame has one owner after floorWorkload's drops, duplicates, delays
// and crash; its re-sent revocations find their records' snapshots, so a
// re-ack that sent from its record's frame and put it back shows here. That
// workload never leaves a settled entry idle at a dead home, so one more run
// does: node 1 serves node 2 a write grant with data, and as node 2's install
// ack reaches node 1 both die. The serve rolls back to node 1 with its
// snapshot's bytes, and the entry, idle at a dead home, is rebuilt at its
// live anchor from the snapshot too: under dist in a rebuild that settle
// defers until the lanes are quiescent, after the serving task has ended. A
// snapshot that task put back before the rebuild ran is put back twice.
func TestChaosFramesHaveOneOwner(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		for seed := int64(1); seed <= 12; seed++ {
			if proto == HomeMigrate && (seed == 8 || seed == 12) {
				continue // floorWorkload's doomed writer is still writing at the crash
			}
			e := floorWorkload(t, proto, seed, true, nil)
			e.run(t)
			checkOneOwner(t, e.m, fmt.Sprintf("seed %d", seed))
		}
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
		checkOneOwner(t, e.m, "grant window closed by two deaths")
	})
}
