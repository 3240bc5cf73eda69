package dsm

import (
	"fmt"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

func prefetchVPNs(base mem.Addr, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base.VPN() + uint64(i)
	}
	return out
}

func TestPrefetchGrantsBatch(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	const pages = 10
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < pages; i++ {
			e.write(tk, 0, testAddr+mem.Addr(i*mem.PageSize), byte(i+1))
		}
		n, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, pages))
		if err != nil || n != pages {
			t.Errorf("Prefetch = %d, %v", n, err)
		}
		for i := 0; i < pages; i++ {
			if got := e.read(tk, 1, testAddr+mem.Addr(i*mem.PageSize)); got != byte(i+1) {
				t.Errorf("page %d = %d", i, got)
			}
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.PrefetchedPages != pages {
		t.Fatalf("PrefetchedPages = %d", st.PrefetchedPages)
	}
	if st.ReadFaults != 0 {
		t.Fatalf("ReadFaults = %d; prefetched pages must not demand-fault", st.ReadFaults)
	}
}

func TestPrefetchSplitsLargeBatches(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	pages := PrefetchBatch + 7
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < pages; i++ {
			e.write(tk, 0, testAddr+mem.Addr(i*mem.PageSize), 1)
		}
		n, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, pages))
		if err != nil || n != pages {
			t.Errorf("Prefetch = %d, %v (want %d)", n, err, pages)
		}
	})
	e.run(t)
}

func TestPrefetchSkipsPresentPages(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		e.write(tk, 0, testAddr+mem.PageSize, 2)
		_ = e.read(tk, 1, testAddr) // node 1 already holds page 0
		n, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, 2))
		if err != nil || n != 1 {
			t.Errorf("Prefetch = %d, %v (want 1: page 0 already held)", n, err)
		}
	})
	e.run(t)
}

func TestPrefetchAllSkippedNoAck(t *testing.T) {
	// A batch in which everything is already present must not leak an
	// install-ack or deadlock.
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		_ = e.read(tk, 1, testAddr)
		n, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, 1))
		if err != nil || n != 0 {
			t.Errorf("Prefetch = %d, %v", n, err)
		}
	})
	e.run(t)
}

func TestPrefetchAtOriginNoop(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		n, err := e.m.Prefetch(tk, Ctx{Node: 0}, prefetchVPNs(testAddr, 4))
		if err != nil || n != 0 {
			t.Errorf("origin Prefetch = %d, %v", n, err)
		}
	})
	e.run(t)
}

func TestPrefetchRacesWithWriter(t *testing.T) {
	// A third node writes into the range while node 1 prefetches it; the
	// protocol must stay consistent (busy pages are skipped or served
	// strictly serialized).
	for seed := int64(1); seed <= 4; seed++ {
		e := newEnvSeed(t, 3, DefaultParams(), nil, seed)
		const pages = 16
		e.eng.Spawn("writer", func(tk *sim.Task) {
			for round := 0; round < 4; round++ {
				for i := 0; i < pages; i += 3 {
					e.write(tk, 2, testAddr+mem.Addr(i*mem.PageSize), byte(round))
					tk.Sleep(5 * time.Microsecond)
				}
			}
		})
		e.eng.Spawn("prefetcher", func(tk *sim.Task) {
			for round := 0; round < 4; round++ {
				if _, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, pages)); err != nil {
					t.Errorf("Prefetch: %v", err)
				}
				tk.Sleep(10 * time.Microsecond)
			}
		})
		e.run(t) // CheckInvariants inside
	}
}

func TestPrefetchedPageStillRevocable(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		if _, err := e.m.Prefetch(tk, Ctx{Node: 1}, prefetchVPNs(testAddr, 1)); err != nil {
			t.Error(err)
		}
		// Origin writes again: node 1's prefetched replica must be
		// invalidated and the next remote read must see the new value.
		e.write(tk, 0, testAddr, 8)
		if got := e.read(tk, 1, testAddr); got != 8 {
			t.Errorf("stale prefetched replica survived: %d", got)
		}
	})
	e.run(t)
}

// TestPrefetchUnderEveryProtocol: the hint rides the ordinary request path, so
// it works under every policy, with and without an injector that drops,
// duplicates and delays messages. Node 2 prefetches 40 pages after node 1
// rewrote every 7th one; whatever was granted, every page then reads back
// right and the invariants hold.
func TestPrefetchUnderEveryProtocol(t *testing.T) {
	const pages = 40
	faulty := func(seed int64) *chaos.Plan {
		return &chaos.Plan{
			Seed:  seed,
			Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}},
			Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
			Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1, Jitter: chaos.Duration(20 * time.Microsecond)}},
		}
	}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		for _, injector := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("injector=%v/seed%d", injector, seed), func(t *testing.T) {
					e := newEnvSeed(t, 3, protoParams(proto), nil, seed)
					if injector {
						e = newChaosEnvParams(t, 3, faulty(seed), protoParams(proto))
					}
					want := func(i int) byte {
						if i%7 == 0 {
							return byte(100 + i)
						}
						return byte(i + 1)
					}
					granted := -1
					e.eng.Spawn("main", func(tk *sim.Task) {
						for i := 0; i < pages; i++ {
							e.write(tk, 0, testAddr+mem.Addr(i*mem.PageSize), byte(i+1))
						}
						for i := 0; i < pages; i += 7 {
							e.write(tk, 1, testAddr+mem.Addr(i*mem.PageSize), want(i))
						}
						n, err := e.m.Prefetch(tk, Ctx{Node: 2}, prefetchVPNs(testAddr, pages))
						if err != nil {
							t.Errorf("Prefetch: %v", err)
						}
						granted = n
						for i := 0; i < pages; i++ {
							if got := e.read(tk, 2, testAddr+mem.Addr(i*mem.PageSize)); got != want(i) {
								t.Errorf("page %d = %d, want %d", i, got, want(i))
							}
						}
					})
					e.run(t)
					if got := e.m.Stats().PrefetchedPages; granted <= 0 || got != uint64(granted) {
						t.Fatalf("Prefetch granted %d pages, PrefetchedPages = %d", granted, got)
					}
					if proto == WriteInvalidate && !injector && granted != pages {
						t.Fatalf("Prefetch granted %d of %d pages under write-invalidate", granted, pages)
					}
				})
			}
		}
	})
}

// TestDropDirectoryRange is the munmap flow under every policy: with the
// range gone the invariants hold (e.run checks them) and no node keeps an
// entry, a mapping or a route for a page in it.
func TestDropDirectoryRange(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		const nodes, pages = 3, 6
		e := newEnv(t, nodes, protoParams(proto), nil)
		lo := testAddr.VPN()
		hi, kept := lo+3, lo+pages-1
		e.eng.Spawn("main", func(tk *sim.Task) {
			for i := 0; i < pages; i++ {
				addr := testAddr + mem.Addr(i*mem.PageSize)
				e.write(tk, i%nodes, addr, byte(i))
				e.write(tk, (i+1)%nodes, addr, byte(i)) // authority moves where it can
				_ = e.read(tk, (i+2)%nodes, addr)
			}
			tk.Sleep(300 * time.Microsecond) // let install acks and hints land
			// Simulate the munmap flow: invalidate remote PTEs, then drop.
			for n := 1; n < nodes; n++ {
				e.m.ReclaimRange(n, lo, hi)
			}
			if err := e.m.DropDirectoryRange(tk, lo, hi); err != nil {
				t.Errorf("DropDirectoryRange: %v", err)
			}
		})
		e.run(t)
		for n, ns := range e.m.nodes {
			for vpn := range ns.routes {
				if vpn >= lo && vpn <= hi {
					t.Errorf("node %d keeps a route for unmapped page %#x", n, vpn)
				}
			}
			if got := e.m.PageTable(n).Present(); n == 0 && got == 0 || got > pages-4 {
				t.Errorf("node %d maps %d pages after the drop", n, got)
			}
		}
		for vpn := lo; vpn <= kept; vpn++ {
			if _, ok := e.m.dir.find(vpn); ok != (vpn > hi) {
				t.Errorf("entry of page %#x present=%v", vpn, ok)
			}
		}
		if proto != WriteInvalidate && len(e.m.nodes[0].routes)+len(e.m.nodes[1].routes)+len(e.m.nodes[2].routes) == 0 {
			t.Error("the workload left no route to drop or keep")
		}
	})
}

func TestLatencyRecordingOff(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil) // no recorder: no per-fault record
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		_ = e.read(tk, 1, testAddr)
	})
	e.run(t)
	if e.m.Stats().TotalLatency == 0 {
		t.Fatal("TotalLatency not aggregated")
	}
}
