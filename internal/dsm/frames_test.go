package dsm

import (
	"runtime"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// A page is read-replicated to every node, restamped by a rotating writer and
// replicated again, round after round. A read grant takes a reference to the
// home's frame instead of a copy, and a write grant revokes every other
// holder before the writer maps the frame, so the process's frame pool
// allocates one frame a page, however many nodes hold it.
func TestReplicationFramesAllocsPerRun(t *testing.T) {
	const nodes, pages, rounds = 4, 8, 6
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, nodes, protoParams(proto), nil)
		addr := func(p int) mem.Addr { return testAddr + mem.Addr(p*mem.PageSize) }
		e.eng.Spawn("main", func(tk *sim.Task) {
			for r := 0; r < rounds; r++ {
				for p := 0; p < pages; p++ {
					e.write(tk, r%nodes, addr(p), byte(r+1))
				}
				for n := 0; n < nodes; n++ {
					for p := 0; p < pages; p++ {
						if got := e.read(tk, n, addr(p)); got != byte(r+1) {
							t.Errorf("round %d: node %d read %d on page %d, want %d", r, n, got, p, r+1)
						}
					}
				}
			}
		})
		e.run(t)
		resident := 0
		for n := 0; n < nodes; n++ {
			resident += e.m.PageTable(n).Present()
		}
		recycled, allocs, shared := e.m.FrameStats()
		if resident != nodes*pages || allocs != pages {
			t.Errorf("%d frames allocated (%d recycled, %d references shared) for %d pages resident %d times, want %d",
				allocs, recycled, shared, pages, resident, pages)
		}
		checkRefs(t, e.m, proto.String())
	})
}

// Eight nodes read 64 pages the origin wrote: every replica is a reference
// to the origin's frame, so the readers copy no page and allocate no frame,
// and a read fault costs its records — well under a kilobyte of heap, where a
// copied replica alone was a 4 KB frame. Each reader's first fault, which
// also builds its page table and TLB, is left out of the measure.
func TestReadReplicaCopyBudget(t *testing.T) {
	const nodes, pages = 8, 64
	e := newEnv(t, nodes, DefaultParams(), nil)
	addr := func(p int) mem.Addr { return testAddr + mem.Addr(p*mem.PageSize) }
	read := func(tk *sim.Task, n, p int) {
		if got := e.read(tk, n, addr(p)); got != byte(p) {
			t.Errorf("node %d read %d on page %d, want %d", n, got, p, p)
		}
	}
	var heap uint64
	e.eng.Spawn("main", func(tk *sim.Task) {
		for p := 0; p < pages; p++ {
			e.write(tk, 0, addr(p), byte(p))
		}
		for n := 1; n < nodes; n++ {
			read(tk, n, 0)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.TotalAlloc
		for n := 1; n < nodes; n++ {
			for p := 1; p < pages; p++ {
				read(tk, n, p)
			}
		}
		runtime.ReadMemStats(&ms)
		heap = ms.TotalAlloc - heap
	})
	e.run(t)
	if faults := e.m.Stats().ReadFaults; faults != (nodes-1)*pages {
		t.Fatalf("%d read faults, want %d", faults, (nodes-1)*pages)
	}
	if _, allocs, _ := e.m.FrameStats(); allocs != pages || e.m.frames.Copies() != 0 {
		t.Errorf("%d frames allocated and %d pages copied, want %d and 0", allocs, e.m.frames.Copies(), pages)
	}
	per := heap / ((nodes - 1) * (pages - 1))
	t.Logf("%d bytes of heap per read fault", per)
	if per >= 1024 {
		t.Errorf("a read fault grows the heap by %d bytes, want under 1 KiB", per)
	}
	checkRefs(t, e.m, "read replicas")
}

// coalescedRoundAllocs reports the host allocations of one round in which
// readers tasks at node 1 fault together on a page node 0 has just written:
// one leads, the rest follow.
func coalescedRoundAllocs(t *testing.T, readers int) float64 {
	t.Helper()
	e := newEnv(t, 2, DefaultParams(), nil)
	var stamp byte
	done := false
	tasks := make([]*sim.Task, readers)
	for i := range tasks {
		tasks[i] = e.eng.Spawn("reader", func(tk *sim.Task) {
			for {
				tk.Park("next round")
				if done {
					return
				}
				if got := e.read(tk, 1, testAddr); got != stamp {
					t.Errorf("reader saw %d, want %d", got, stamp)
				}
			}
		})
	}
	wake := func() {
		for _, r := range tasks {
			r.Unpark()
		}
	}
	var got float64
	e.eng.Spawn("meter", func(tk *sim.Task) {
		got = testing.AllocsPerRun(50, func() {
			stamp++
			e.write(tk, 0, testAddr, stamp) // takes node 1's copy away
			wake()
			tk.Sleep(100 * time.Microsecond)
		})
		done = true
		wake()
	})
	e.run(t)
	if joins, want := e.m.Stats().FollowerJoins, uint64(51*(readers-1)); joins != want {
		t.Fatalf("%d readers: %d follower joins, want %d", readers, joins, want)
	}
	return got
}

// A follower's join allocates nothing once its node is warm: the leader takes
// a recycled fault group whose followers slice already has the room, so a
// round costs the same host allocations with seven followers as with none.
func TestCoalescedJoinAllocsPerRun(t *testing.T) {
	if many, one := coalescedRoundAllocs(t, 8), coalescedRoundAllocs(t, 1); many != one {
		t.Errorf("a coalesced read round allocates %v objects with 7 followers and %v without, want the same", many, one)
	}
}

// Under an injector the transport keeps a page copy for each possible re-send
// — a grant's data at the serving home, a pulled page at the node it was
// pulled from — in a frame from the pool, and puts it back once nothing can
// ask for it again. Nodes 1 and 2 write one page in turn under wi, with an
// injector that drops and duplicates nothing: each fault pulls the page from
// the last writer and is granted with its data, and allocates its records but
// no page, less than a page of heap.
func TestChaosPingPongCopyBudget(t *testing.T) {
	const warm, faults = 50, 200
	e := newChaosEnv(t, 3, &chaos.Plan{Seed: 1})
	var bytes, pulls, pages uint64
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < warm+faults; i++ {
			if i == warm {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				bytes, pulls, pages = ms.TotalAlloc, e.m.Stats().PageTransfers, e.net.Stats().PageSends
			}
			e.write(tk, 1+i%2, testAddr, byte(i))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		bytes, pulls, pages = ms.TotalAlloc-bytes, e.m.Stats().PageTransfers-pulls, e.net.Stats().PageSends-pages
	})
	e.run(t)
	if pulls != faults || pages != 2*faults {
		t.Fatalf("%d faults pulled %d pages and sent %d, want a pull and a grant with data each", faults, pulls, pages)
	}
	if per := bytes / faults; per >= mem.PageSize {
		t.Errorf("a write fault allocates %d bytes of heap, want less than a %d-byte page", per, mem.PageSize)
	}
}

// The home's own write maps a frame no other holder references: while one
// still does — here a reference the test takes, as a re-send snapshot would —
// the home writes a copy, and the holder keeps the bytes it took.
func TestHomeWriteLeavesSharedFrame(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		e.read(tk, 1, testAddr)
		held := e.m.frames.Share(e.m.presentFrame(0, testAddr.VPN()))
		e.write(tk, 0, testAddr, 2)
		if held[testAddr.PageOff()] != 1 {
			t.Errorf("the held frame reads %d after the home's write, want 1", held[testAddr.PageOff()])
		}
		if got := e.read(tk, 1, testAddr); got != 2 {
			t.Errorf("node 1 reads %d, want the home's 2", got)
		}
		e.m.freeFrame(held)
	})
	e.run(t)
	if copies := e.m.frames.Copies(); copies != 1 {
		t.Errorf("%d copies, want the home's one", copies)
	}
	checkRefs(t, e.m, "home write")
}
