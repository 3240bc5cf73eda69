package mem

import (
	"math/rand"
	"testing"
)

func TestTLBHitAfterMap(t *testing.T) {
	var pt PageTable
	pt.Map(5, NewFrame(), true)
	if pt.LookupFast(5, false) == nil || pt.LookupFast(5, true) == nil {
		t.Fatal("LookupFast missed a freshly mapped page")
	}
	st := pt.TLBStats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits (Map pre-fills the slot)", st)
	}
	if pt.LookupFast(6, false) != nil {
		t.Fatal("LookupFast invented an unmapped page")
	}
	if st = pt.TLBStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

func TestTLBShootdownOnInvalidate(t *testing.T) {
	var pt PageTable
	pt.Map(9, NewFrame(), false)
	if pt.LookupFast(9, false) == nil {
		t.Fatal("warm-up lookup failed")
	}
	pt.Invalidate(9)
	if pte := pt.LookupFast(9, false); pte != nil {
		t.Fatalf("TLB served an invalidated page: %+v", pte)
	}
	if st := pt.TLBStats(); st.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", st.Flushes)
	}
}

// TestTLBWriteAfterDowngrade is the stale-rights case that matters most for
// the DSM protocol: a page cached writable in the TLB is downgraded to
// read-only (a remote node took a read replica). A subsequent write access
// must fall back to the fault path, not be served from the stale slot.
func TestTLBWriteAfterDowngrade(t *testing.T) {
	var pt PageTable
	pt.Map(3, NewFrame(), true)
	if pt.LookupFast(3, true) == nil {
		t.Fatal("write lookup on exclusive page failed")
	}
	pt.Downgrade(3)
	if pte := pt.LookupFast(3, true); pte != nil {
		t.Fatalf("TLB served a write on a downgraded page: %+v", pte)
	}
	// Reads keep working, and the refill re-caches the narrowed rights.
	if pt.LookupFast(3, false) == nil {
		t.Fatal("read lookup failed after downgrade")
	}
	if pte := pt.LookupFast(3, true); pte != nil {
		t.Fatalf("refilled slot restored write rights: %+v", pte)
	}
}

func TestTLBShootdownOnInvalidateRange(t *testing.T) {
	var pt PageTable
	for vpn := uint64(10); vpn < 20; vpn++ {
		pt.Map(vpn, NewFrame(), true)
		pt.LookupFast(vpn, true) // warm every slot
	}
	pt.ReclaimRange(12, 15, nil)
	for vpn := uint64(10); vpn < 20; vpn++ {
		got := pt.LookupFast(vpn, true)
		if vpn >= 12 && vpn <= 15 {
			if got != nil {
				t.Fatalf("TLB served invalidated vpn %d", vpn)
			}
		} else if got == nil {
			t.Fatalf("surviving vpn %d lost its mapping", vpn)
		}
	}
}

// TestTLBConflictingSlots maps two pages that collide in the direct-mapped
// array; the later fill must evict the earlier one without corrupting
// correctness, and a shootdown of the page NOT in the slot must not flush
// the resident one.
func TestTLBConflictingSlots(t *testing.T) {
	var pt PageTable
	a, b := uint64(7), uint64(7+tlbSize)
	pt.Map(a, NewFrame(), true)
	pt.Map(b, NewFrame(), true) // evicts a from the shared slot
	if pt.LookupFast(b, true) == nil {
		t.Fatal("resident conflict entry missed")
	}
	hitsBefore := pt.TLBStats().Hits
	if pt.LookupFast(a, true) == nil {
		t.Fatal("evicted page lost (must refill from tree)")
	}
	if pt.TLBStats().Hits != hitsBefore {
		t.Fatal("evicted page hit in the TLB")
	}
	// a now occupies the slot; invalidating b must not flush a's entry …
	flushesBefore := pt.TLBStats().Flushes
	pt.Invalidate(b)
	if pt.TLBStats().Flushes != flushesBefore {
		t.Fatal("shootdown of non-resident page flushed the slot")
	}
	// … and a must still be served, while b is gone.
	if pt.LookupFast(a, true) == nil {
		t.Fatal("slot owner lost after conflicting shootdown")
	}
	if pt.LookupFast(b, false) != nil {
		t.Fatal("invalidated page still readable")
	}
}

// TestPresentCounterProperty cross-checks the incrementally maintained
// Present() counter against a full tree walk after randomized sequences of
// Map / Invalidate / Downgrade / ReclaimRange, interleaved with
// LookupFast so the TLB is live while rights churn.
func TestPresentCounterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	const vpnSpace = 4 * tlbSize // force slot conflicts
	for trial := 0; trial < 50; trial++ {
		var pt PageTable
		for op := 0; op < 400; op++ {
			vpn := uint64(rng.Intn(vpnSpace))
			switch rng.Intn(5) {
			case 0, 1:
				pt.Map(vpn, NewFrame(), rng.Intn(2) == 0)
			case 2:
				pt.Invalidate(vpn)
			case 3:
				pt.Downgrade(vpn)
			case 4:
				lo := vpn
				hi := lo + uint64(rng.Intn(32))
				pt.ReclaimRange(lo, hi, nil)
			}
			// Exercise the fast path; correctness of the answer is checked
			// against the authoritative tree.
			probe := uint64(rng.Intn(vpnSpace))
			write := rng.Intn(2) == 0
			fast := pt.LookupFast(probe, write)
			slow := pt.Lookup(probe)
			wantHit := slow != nil && slow.Present && (!write || slow.Writable)
			if (fast != nil) != wantHit {
				t.Fatalf("trial %d op %d: LookupFast(%d,%v)=%v disagrees with tree (pte=%+v)",
					trial, op, probe, write, fast != nil, slow)
			}
			if fast != nil && fast != slow {
				t.Fatalf("trial %d op %d: LookupFast returned a different PTE", trial, op)
			}
		}
		walked := 0
		pt.tree.ForEach(func(_ uint64, pte *PTE) bool {
			if pte.Present {
				walked++
			}
			return true
		})
		if pt.Present() != walked {
			t.Fatalf("trial %d: Present() = %d, full walk = %d", trial, pt.Present(), walked)
		}
	}
}

func TestFramePoolRecycles(t *testing.T) {
	var p FramePool
	f := p.Get()
	if len(f) != PageSize {
		t.Fatalf("frame size = %d", len(f))
	}
	f[0], f[PageSize-1] = 0xFF, 0xFF
	p.Release(f)
	if p.Free() != 1 {
		t.Fatalf("Free = %d", p.Free())
	}
	g := p.GetZeroed()
	if &g[0] != &f[0] {
		t.Fatal("pool did not recycle the frame")
	}
	if g[0] != 0 || g[PageSize-1] != 0 {
		t.Fatal("GetZeroed returned a dirty frame")
	}
	p.Release(g)
	h := p.Get() // dirty reuse is fine: callers overwrite fully
	if &h[0] != &g[0] {
		t.Fatal("second recycle failed")
	}
	if p.Recycled() != 2 || p.Allocs() != 1 {
		t.Fatalf("Recycled=%d Allocs=%d", p.Recycled(), p.Allocs())
	}
	p.Release(nil)              // dropped
	p.Release(make([]byte, 16)) // wrong size, dropped
	if p.Free() != 0 {
		t.Fatalf("pool accepted bogus frames: Free = %d", p.Free())
	}
}
