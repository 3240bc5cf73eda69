package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/sim"
)

// This file mirrors the write-invalidate fault-injection suite
// (chaos_test.go) for the home-migrate policy: the same mixed workload must
// produce the same values under message drops, duplication, and delay, and
// the dead-home recovery paths (rehome to origin, hint invalidation,
// request failover) must leave the directory consistent.

// TestHomeChaosDeadHomeRehomedToOrigin crashes a node that has become the
// home of a migrated page: reclaim must move the home (and ownership) back
// to the origin, invalidate every stale home hint pointing at the dead
// node, and leave survivors able to read and write the page.
func TestHomeChaosDeadHomeRehomedToOrigin(t *testing.T) {
	e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}}, homeParams())
	var after byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // home migrates to node 1
		_ = e.read(tk, 2, testAddr) // node 2 learns the hint home=1
		e.net.Chaos().MarkDead(1)
		lost, err := e.m.ReclaimDeadNode(1)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		// Node 2 still holds a replica of the page, so the rehome recovers
		// the bytes from it instead of zero-filling.
		if len(lost) != 0 {
			t.Errorf("ReclaimDeadNode lost %v, want none (node 2 held a replica)", lost)
		}
		after = e.read(tk, 2, testAddr)
		e.write(tk, 2, testAddr, 5)
	})
	e.run(t)
	if after != 9 {
		t.Fatalf("read after rehome = %d, want 9 (recovered from the surviving replica)", after)
	}
	de, ok := e.m.dir.find(testAddr.VPN())
	if !ok {
		t.Fatal("no directory entry after recovery")
	}
	if de.home != 2 || de.writer != 2 {
		t.Fatalf("entry after survivor write: home=%d writer=%d, want 2/2", de.home, de.writer)
	}
	st := e.m.Stats()
	if st.PagesRehomed == 0 {
		t.Fatalf("PagesRehomed = 0 after a dead-home reclaim (stats: %+v)", st)
	}
	for n := range e.m.nodes {
		for vpn, r := range e.m.nodes[n].routes {
			if r.home == 1 {
				t.Fatalf("node %d still hints page %#x at the dead home", n, vpn)
			}
		}
	}
}

// TestHomeChaosStaleHintFailsOverToOrigin: a requester whose hint points at
// a home that died (but has not been reclaimed yet) must fail over to the
// origin instead of retransmitting at the dead node forever. The origin, the
// page's anchor, can serve it once the reclaim has rebuilt the page there;
// the reclaim comes from a task of its own, as the lease layer's does.
func TestHomeChaosStaleHintFailsOverToOrigin(t *testing.T) {
	e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}}, homeParams())
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // home migrates to node 1
		_ = e.read(tk, 2, testAddr) // node 2 learns the hint home=1
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		// Node 2's hint still says home=1; the fault must detect the death
		// and re-target the origin, which recovers the page.
		e.write(tk, 2, testAddr, 3)
		got = e.read(tk, 0, testAddr)
	})
	e.eng.SpawnAfter("lease", 3*time.Millisecond, func(tk *sim.Task) {
		if _, err := e.m.ReclaimDeadNode(1); err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
	})
	e.run(t)
	if got != 3 {
		t.Fatalf("read after failover write = %d, want 3", got)
	}
	if st := e.m.Stats(); st.HomeFailovers == 0 {
		t.Fatalf("HomeFailovers = 0 after a stale-hint fault (stats: %+v)", st)
	}
}

// TestReclaimOriginNodeReturnsError pins the reclaim contract: declaring
// the origin dead is not survivable and must surface an attributable error,
// not a panic.
func TestReclaimOriginNodeReturnsError(t *testing.T) {
	e := newChaosEnvParams(t, 2, &chaos.Plan{Seed: 1, Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}}}, homeParams())
	if _, err := e.m.ReclaimDeadNode(0); err == nil {
		t.Fatal("ReclaimDeadNode(origin) returned nil error")
	}
}
