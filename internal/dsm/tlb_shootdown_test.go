package dsm

import (
	"testing"

	"dex/internal/mem"
	"dex/internal/sim"
)

// These tests pin down TLB coherence as seen through the DSM protocol: every
// revocation path (write-invalidate, read-downgrade, range reclaim) must
// shoot down the software TLB at the target node before the protocol
// completes, so no access is ever served with stale rights or stale data
// from the cached translation.

// TestTLBShootdownOnRemoteWrite interleaves cached reads at one node with
// invalidations triggered by writes at another. Each round the reader's
// replica is revoked; a stale TLB entry would hand back the old frame.
func TestTLBShootdownOnRemoteWrite(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	vpn := testAddr.VPN()
	e.eng.Spawn("main", func(tk *sim.Task) {
		for round := byte(1); round <= 5; round++ {
			e.write(tk, 0, testAddr, round)
			// Cached reads at node 1: the first faults, the rest hit the TLB.
			for i := 0; i < 4; i++ {
				if got := e.read(tk, 1, testAddr); got != round {
					t.Errorf("round %d read %d: got %d (stale TLB data)", round, i, got)
				}
			}
			if e.m.Lookup(1, vpn, false) == nil {
				t.Errorf("round %d: replica not cached at node 1", round)
			}
			// The next write at node 0 revokes node 1's replica; the TLB
			// entry must die with it.
			e.write(tk, 0, testAddr, round+100)
			if e.m.Lookup(1, vpn, false) != nil {
				t.Errorf("round %d: node 1 lookup survived invalidation", round)
			}
			if got := e.read(tk, 1, testAddr); got != round+100 {
				t.Errorf("round %d: post-invalidate read = %d, want %d", round, got, round+100)
			}
			// Reset for the next round: node 0 takes the page back exclusive.
		}
	})
	e.run(t)
	st := e.m.TLBStats()
	if st.Hits == 0 {
		t.Fatal("cached reads never hit the TLB")
	}
	if st.Flushes == 0 {
		t.Fatal("invalidations never flushed a live TLB entry")
	}
}

// TestTLBWriteAfterDowngradeDSM is the write-after-downgrade case end to
// end: a node holds a page exclusively (TLB caches it writable), a remote
// read downgrades it to shared, and the next write at the former owner must
// take the fault path and re-acquire exclusivity — never sneak through the
// stale writable TLB entry.
func TestTLBWriteAfterDowngradeDSM(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	vpn := testAddr.VPN()
	var faultsBefore, faultsAfter uint64
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		e.write(tk, 1, testAddr, 2) // node 1 exclusive, TLB caches writable
		if e.m.Lookup(1, vpn, true) == nil {
			t.Error("writer lost its exclusive mapping")
		}
		if got := e.read(tk, 0, testAddr); got != 2 { // downgrades node 1
			t.Errorf("origin read = %d, want 2", got)
		}
		if e.m.Lookup(1, vpn, true) != nil {
			t.Error("node 1 still write-mapped after downgrade (stale TLB rights)")
		}
		if e.m.Lookup(1, vpn, false) == nil {
			t.Error("node 1 lost read rights on downgrade")
		}
		faultsBefore = e.m.Stats().WriteFaults
		e.write(tk, 1, testAddr, 3) // must fault to regain exclusivity
		faultsAfter = e.m.Stats().WriteFaults
		if got := e.read(tk, 1, testAddr); got != 3 {
			t.Errorf("read back = %d, want 3", got)
		}
	})
	e.run(t)
	if faultsAfter != faultsBefore+1 {
		t.Fatalf("write after downgrade took %d write faults, want exactly 1",
			faultsAfter-faultsBefore)
	}
}

// TestTLBShootdownOnReclaimRange covers the munmap-driven path: pages warm
// in the TLB at a remote node are reclaimed in bulk; every lookup must miss
// afterwards and the frames must land in the free pool.
func TestTLBShootdownOnReclaimRange(t *testing.T) {
	e := newEnv(t, 2, DefaultParams(), nil)
	base := testAddr
	const pages = 6
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < pages; i++ {
			addr := base + mem.Addr(i*mem.PageSize)
			e.write(tk, 0, addr, byte(i)) // first touch at origin
			e.read(tk, 1, addr)           // replicate to node 1, warm its TLB
		}
		for i := 0; i < pages; i++ {
			vpn := (base + mem.Addr(i*mem.PageSize)).VPN()
			if e.m.Lookup(1, vpn, false) == nil {
				t.Errorf("page %d not replicated", i)
			}
		}
		// The munmap flow: reclaim remote replicas, then drop the directory
		// range (which reclaims the origin's own mappings too).
		lo, hi := base.VPN(), (base + mem.Addr((pages-1)*mem.PageSize)).VPN()
		if n := e.m.ReclaimRange(1, lo, hi); n != pages {
			t.Errorf("ReclaimRange dropped %d pages, want %d", n, pages)
		}
		if err := e.m.DropDirectoryRange(tk, lo, hi); err != nil {
			t.Errorf("DropDirectoryRange: %v", err)
		}
		for i := 0; i < pages; i++ {
			vpn := (base + mem.Addr(i*mem.PageSize)).VPN()
			if e.m.Lookup(1, vpn, false) != nil {
				t.Errorf("page %d still mapped after reclaim (stale TLB entry)", i)
			}
		}
		if free := e.m.frames.Free(); free < pages {
			t.Errorf("frame pool holds %d frames after reclaim, want >= %d", free, pages)
		}
	})
	e.run(t)
	if st := e.m.TLBStats(); st.Flushes == 0 {
		t.Fatal("range reclaim flushed no TLB entries")
	}
}
