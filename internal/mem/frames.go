package mem

import (
	"iter"
	"slices"
)

// FramePool recycles page frames so the page-transfer path does not pay one
// 4 KB allocation (and its GC debt) per transfer, and lets holders share one
// frame instead of copying it. A frame handed out by Get holds one reference;
// Share takes another, Release drops one, and the last Release puts the frame
// back. A frame is immutable while it has more than one reference: only a
// writable mapping writes a frame, and Private gives it a frame nobody else
// holds, copying only when someone does. Get hands a frame out with undefined
// contents (every consumer overwrites all PageSize bytes), while GetZeroed
// clears it for demand-zero mappings. The pool never shrinks: its high-water
// mark is bounded by the process's peak resident frames.
//
// Only shared frames are counted, in a side table keyed by the frame's first
// byte holding the references past the first, so a frame stays a plain
// PageSize slice. A nil pool shares nothing and takes nothing back: its
// frames are the collector's.
type FramePool struct {
	free     [][]byte
	extra    map[*byte]int32
	recycled uint64
	allocs   uint64
	shared   uint64
	copies   uint64
}

// Get returns a PageSize frame with undefined contents.
func (p *FramePool) Get() []byte {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.recycled++
		return f
	}
	p.allocs++
	return make([]byte, PageSize)
}

// GetZeroed returns a zero-filled PageSize frame.
func (p *FramePool) GetZeroed() []byte {
	pooled := len(p.free) > 0
	f := p.Get()
	if pooled {
		clear(f)
	}
	return f
}

// Share takes one more reference to f, a frame the caller holds, and returns
// f. Whoever it is handed to releases it.
func (p *FramePool) Share(f []byte) []byte {
	if p == nil || len(f) == 0 {
		return f
	}
	if p.extra == nil {
		p.extra = make(map[*byte]int32)
	}
	p.extra[&f[0]]++
	p.shared++
	return f
}

// Release drops one reference to f; the last one returns f to the pool. A
// nil or odd-sized frame is ignored.
func (p *FramePool) Release(f []byte) {
	if p == nil || len(f) != PageSize {
		return
	}
	k := &f[0]
	switch n := p.extra[k]; n {
	case 0:
		p.free = append(p.free, f)
	case 1:
		delete(p.extra, k)
	default:
		p.extra[k] = n - 1
	}
}

// Private returns a frame with f's bytes that the caller may map writable: f
// itself when the caller's reference is its only one, else a copy, the
// caller's reference to f being released.
func (p *FramePool) Private(f []byte) []byte {
	if p.Refs(f) == 1 {
		return f
	}
	c := p.Get()
	copy(c, f)
	p.Release(f)
	p.copies++
	return c
}

// Refs reports how many references f has: one, or more while it is shared.
func (p *FramePool) Refs(f []byte) int { return 1 + int(p.extra[&f[0]]) }

// SharedFrames reports how many frames have more than one reference.
func (p *FramePool) SharedFrames() int { return len(p.extra) }

// Free reports how many frames are currently pooled.
func (p *FramePool) Free() int { return len(p.free) }

// All yields the pooled frames.
func (p *FramePool) All() iter.Seq[[]byte] { return slices.Values(p.free) }

// Recycled reports how many Gets were served from the pool.
func (p *FramePool) Recycled() uint64 { return p.recycled }

// Allocs reports how many Gets fell through to a fresh allocation.
func (p *FramePool) Allocs() uint64 { return p.allocs }

// Shares reports how many references Share took: each one a page copy the
// holder did not make.
func (p *FramePool) Shares() uint64 { return p.shared }

// Copies reports how many frames Private copied because they were shared.
func (p *FramePool) Copies() uint64 { return p.copies }
