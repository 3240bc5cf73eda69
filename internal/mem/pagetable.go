package mem

import "dex/internal/radix"

// PTE is a software page-table entry on one node. Present pages hold a
// local frame with real bytes; Writable distinguishes shared (read
// replicated) from exclusively owned pages.
//
// Gen is the entry's generation: it moves whenever the mapping or the bytes
// behind it may have — Map, Invalidate and Downgrade bump it here, and the
// consistency layer bumps it each time it hands the entry out for writing. A
// reader that finds the generation it last saw knows the page is still
// present, readable and unwritten without touching it. It shares the word of
// the two flags, so an entry costs what it did without it; a watch lasts
// microseconds of virtual time, not the 2^32 changes a wrap needs.
type PTE struct {
	Present  bool
	Writable bool
	Gen      uint32
	Frame    []byte
}

// PageTable is one node's view of a process address space: the set of pages
// it currently has mapped, with their access rights. A direct-mapped
// software TLB (tlb.go) caches present translations in front of the tree;
// every mutation of rights below must keep it coherent via tlbShootdown or
// tlbFill.
type PageTable struct {
	tree     radix.Tree[PTE]
	tlb      []tlbEntry
	tlbStats TLBStats
	present  int // count of present entries, maintained incrementally
}

// Lookup returns the PTE for vpn, or nil if the page is not tracked here.
func (pt *PageTable) Lookup(vpn uint64) *PTE {
	pte, _ := pt.tree.Get(vpn)
	return pte
}

// Map installs a present mapping for vpn with the given frame and rights.
func (pt *PageTable) Map(vpn uint64, frame []byte, writable bool) *PTE {
	pte, _ := pt.tree.GetOrCreate(vpn, func() *PTE { return &PTE{} })
	if !pte.Present {
		pt.present++
	}
	pte.Present = true
	pte.Writable = writable
	pte.Frame = frame
	pte.Gen++
	pt.tlbFill(vpn, pte)
	return pte
}

// Invalidate clears the mapping for vpn (the frame is dropped), reporting
// whether a present mapping existed.
func (pt *PageTable) Invalidate(vpn uint64) bool {
	pte, ok := pt.tree.Get(vpn)
	if !ok || !pte.Present {
		return false
	}
	pte.Present = false
	pte.Writable = false
	pte.Frame = nil
	pte.Gen++
	pt.present--
	pt.tlbShootdown(vpn)
	return true
}

// Downgrade removes write permission from vpn, reporting whether the page
// was present and writable.
func (pt *PageTable) Downgrade(vpn uint64) bool {
	pte, ok := pt.tree.Get(vpn)
	if !ok || !pte.Present || !pte.Writable {
		return false
	}
	pte.Writable = false
	pte.Gen++
	pt.tlbShootdown(vpn)
	return true
}

// ReclaimRange clears all present mappings with lo <= vpn <= hi, handing
// each dropped frame to reclaim (when non-nil) for recycling, and returns
// how many were dropped. The caller must guarantee no other reference to
// the dropped frames remains — in-flight transfers included.
func (pt *PageTable) ReclaimRange(lo, hi uint64, reclaim func([]byte)) int {
	type victim struct {
		vpn   uint64
		frame []byte
	}
	var victims []victim
	pt.tree.ForRange(lo, hi, func(vpn uint64, pte *PTE) bool {
		if pte.Present {
			victims = append(victims, victim{vpn: vpn, frame: pte.Frame})
		}
		return true
	})
	for _, v := range victims {
		pt.Invalidate(v.vpn)
		if reclaim != nil {
			reclaim(v.frame)
		}
	}
	return len(victims)
}

// ForEach visits every tracked PTE in ascending VPN order, stopping early
// if fn returns false. Non-present entries are included; callers that only
// want mapped pages check pte.Present themselves.
func (pt *PageTable) ForEach(fn func(vpn uint64, pte *PTE) bool) {
	pt.tree.ForRange(0, ^uint64(0), fn)
}

// Present reports how many pages are currently mapped present.
func (pt *PageTable) Present() int { return pt.present }

// NewFrame allocates a zeroed page frame.
func NewFrame() []byte { return make([]byte, PageSize) }
