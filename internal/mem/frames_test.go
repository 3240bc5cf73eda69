package mem

import "testing"

// A shared frame goes back to the pool on its last release, not before, and
// Private copies it only while another holder remains.
func TestFramePoolShares(t *testing.T) {
	var p FramePool
	f := p.Get()
	f[0] = 7
	if p.Share(f); p.Refs(f) != 2 || p.SharedFrames() != 1 {
		t.Fatalf("after Share: %d refs, %d shared frames, want 2 and 1", p.Refs(f), p.SharedFrames())
	}
	c := p.Private(f) // the caller's reference goes; the other holder keeps f
	if &c[0] == &f[0] || c[0] != 7 || p.Copies() != 1 {
		t.Fatalf("Private of a shared frame: same frame %v, byte %d, %d copies; want a copy of 7", &c[0] == &f[0], c[0], p.Copies())
	}
	if p.Refs(f) != 1 || p.SharedFrames() != 0 || p.Free() != 0 {
		t.Fatalf("after Private: f has %d refs, %d shared, %d pooled; want 1, 0, 0", p.Refs(f), p.SharedFrames(), p.Free())
	}
	if g := p.Private(c); &g[0] != &c[0] || p.Copies() != 1 {
		t.Fatal("Private copied a frame with one holder")
	}
	p.Release(f)
	p.Release(c)
	if p.Free() != 2 || p.Shares() != 1 || p.Allocs() != 2 {
		t.Fatalf("Free=%d Shares=%d Allocs=%d, want 2, 1, 2", p.Free(), p.Shares(), p.Allocs())
	}
	var none *FramePool // frames without a pool are the collector's
	none.Release(none.Share(f))
	if p.Free() != 2 {
		t.Fatal("a nil pool took a frame")
	}
}
