package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// This file mirrors the fault-injection suites of the other two policies for
// the sharded directory: the mixed workload must be delivery-invariant under
// drops, duplication, and delay; the three-party lookup -> forward -> grant
// exchange must survive the same chaos; and crashing a directory shard must
// rebuild its slice at the pages' live anchors.

// TestDistChaosForwardedGrantDeliveryInvariant drives the three-party
// lookup -> forward -> grant exchange (requester asks the anchor, the anchor
// redirects, the authoritative shard grants) under simultaneous drops,
// duplication, and delay: the value must come through and the route must end
// repaired exactly as in the clean run.
func TestDistChaosForwardedGrantDeliveryInvariant(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  13,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(25 * time.Microsecond)}},
	}
	e := newChaosEnvParams(t, 3, plan, distParams())
	addr := anchoredAddrs(t, e.m, 0, 1)[0]
	vpn := addr.VPN()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, addr, 42)         // authority: anchor 0 -> node 1
		tk.Sleep(300 * time.Microsecond) // let the handoff settle under delay
		got = e.read(tk, 2, addr)        // node 2 -> anchor 0 -> forward -> grant at 1
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("read across the forwarded grant = %d, want 42", got)
	}
	st := e.m.Stats()
	if st.Forwards == 0 {
		t.Fatalf("Forwards = 0; the anchor never redirected (stats: %+v)", st)
	}
	if h := e.m.nodes[2].routes.at(vpn).home; h != 1 {
		t.Fatalf("reader's route = %d, want 1 after the grant", h)
	}
	if _, ok := e.m.dir.get(1, vpn); !ok {
		t.Fatal("entry not hosted at node 1 after the exchange")
	}
}

// TestDistChaosCrashedShardRebuilt crashes a non-origin node that anchors two
// pages: one it hosts and another node still replicates, one homed at a
// survivor. Reclaim must rebuild the dead shard's directory slice at the live
// anchor from the surviving replica, repoint every forwarding pointer and
// hint away from the dead node, and tell the pages' new anchor where the
// second one's home is; survivors then read (preserved bytes) and write both.
func TestDistChaosCrashedShardRebuilt(t *testing.T) {
	e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Millisecond)}}}, distParams())
	addrs := doomedAddrs(t, e.m, 2, 2)
	addr, moved := addrs[0], addrs[1]
	vpn := addr.VPN()
	var after, movedAfter byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 2, addr, 9)  // first touch: hosted at its own anchor, shard 2
		_ = e.read(tk, 0, addr)  // node 0 takes a surviving replica
		e.write(tk, 1, moved, 3) // homed at node 1, anchored at shard 2
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(2) // idempotent with the plan's crash
		lost, err := e.m.ReclaimDeadNode(2)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		if len(lost) != 0 {
			t.Errorf("ReclaimDeadNode lost %v, want none (node 0 held a replica)", lost)
		}
		if a := e.m.anchor(moved.VPN()); a != 0 {
			t.Errorf("the dead shard's page is anchored at %d, want the next live shard 0", a)
		} else if r := e.m.nodes[a].routes.at(moved.VPN()); r.home != 1 {
			t.Errorf("the new anchor routes the page homed at node 1 to %d", r.home)
		}
		// Node 1 has no routing state; its fault starts at the new anchor.
		after = e.read(tk, 1, addr)
		e.write(tk, 1, addr, 5)
		movedAfter = e.read(tk, 0, moved)
	})
	e.run(t)
	if after != 9 || movedAfter != 3 {
		t.Fatalf("reads after rebuild = %d and %d, want 9 (recovered from the surviving replica) and 3", after, movedAfter)
	}
	st := e.m.Stats()
	if st.DirRebuilt == 0 {
		t.Fatalf("DirRebuilt = 0 after reclaiming a shard that hosted entries (stats: %+v)", st)
	}
	de, ok := e.m.dir.get(1, vpn)
	if !ok {
		t.Fatal("entry not hosted at the surviving writer after the rebuild")
	}
	if de.home != 1 || de.writer != 1 {
		t.Fatalf("entry after survivor write: home=%d writer=%d, want 1/1", de.home, de.writer)
	}
	for n, ns := range e.m.nodes {
		for vpn, r := range ns.routes {
			if r.home == 2 {
				t.Fatalf("node %d still forwards page %#x to the dead shard", n, vpn)
			}
		}
	}
}

// TestDistChaosCrashDuringTraffic drives a mixed workload from the two
// survivors against pages anchored at a shard that crashes mid-run under
// drops: lookups, redirects, and grants in flight at the crash must fail
// over (or settle through the serve-side dead-home path), the post-reclaim
// rebuild must land the slice at live shards, and the run must drain with a
// consistent directory. The doomed node itself runs no tasks — a dead
// node's faults could never complete on a fabric that drops its messages.
func TestDistChaosCrashDuringTraffic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := &chaos.Plan{
			Seed:    seed,
			Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
			Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(300 * time.Microsecond)}},
		}
		e := newChaosEnvParams(t, 3, plan, distParams())
		// Eight pages anchored at the doomed shard keep its directory slice
		// busy with lookups, grants, and serve windows as it dies.
		var doomed []mem.Addr
		for a := testAddr; len(doomed) < 8; a += mem.Addr(mem.PageSize) {
			if e.m.anchor(a.VPN()) == 2 {
				doomed = append(doomed, a)
			}
		}
		for node := 0; node <= 1; node++ {
			node := node
			e.eng.Spawn("traffic", func(tk *sim.Task) {
				for i := 0; i < 12; i++ {
					a := doomed[(i+node*3)%len(doomed)]
					if (i+node)%3 == 0 {
						e.write(tk, node, a, byte(i+1))
					} else {
						_ = e.read(tk, node, a)
					}
					tk.Sleep(40 * time.Microsecond)
				}
			})
		}
		e.eng.Spawn("main", func(tk *sim.Task) {
			tk.Sleep(1500 * time.Microsecond) // crash fires at 300µs
			e.net.Chaos().MarkDead(2)
			if _, err := e.m.ReclaimDeadNode(2); err != nil {
				t.Errorf("seed %d: ReclaimDeadNode: %v", seed, err)
			}
			_ = e.read(tk, 1, doomed[0])
			e.write(tk, 1, doomed[0], 12)
			if got := e.read(tk, 0, doomed[0]); got != 12 {
				t.Errorf("seed %d: read after recovery = %d, want 12", seed, got)
			}
		})
		e.run(t) // includes CheckInvariants
	}
}
