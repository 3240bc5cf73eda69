package mem

// The software TLB is a per-page-table, direct-mapped translation cache in
// front of the radix tree, mirroring the MMU/TLB split the paper's
// consistency protocol leans on (§III-B: a node keeps accessing a page
// without contacting the origin as long as it holds proper ownership). The
// overwhelmingly common access — a present page with sufficient rights —
// resolves with one array index instead of a four-level radix walk.
//
// Coherence is strict shootdown, exactly as for a hardware TLB: every path
// that removes or narrows rights (Invalidate, Downgrade, ReclaimRange)
// evicts the cached slot before it returns, and Map refreshes the slot it
// maps. An entry caches the write permission observed at fill time, so a
// missed shootdown would serve stale rights — the invariant is enforced by
// the TestTLBShootdown* tests and, transitively, by the byte-identity
// experiment suite.

const (
	tlbBits = 9
	// tlbSize is the number of direct-mapped TLB slots (512 pages = 2 MB of
	// reach, enough to cover the hot working set of every experiment app).
	tlbSize = 1 << tlbBits
)

// tlbEntry is one direct-mapped slot. pte == nil marks the slot invalid;
// writable snapshots the PTE's write permission at fill time.
type tlbEntry struct {
	vpn      uint64
	pte      *PTE
	writable bool
}

// TLBStats counts software-TLB activity on one page table.
type TLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64 // shootdowns that evicted a live entry
}

// Add accumulates other into s (for cross-node aggregation).
func (s *TLBStats) Add(other TLBStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Flushes += other.Flushes
}

// HitRate returns hits / (hits + misses), or 0 for an untouched TLB.
func (s TLBStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// tlbFill installs a present translation into its direct-mapped slot,
// allocating the slot array on first use so the zero-value PageTable stays
// cheap.
func (pt *PageTable) tlbFill(vpn uint64, pte *PTE) {
	if pt.tlb == nil {
		pt.tlb = make([]tlbEntry, tlbSize)
	}
	pt.tlb[vpn&(tlbSize-1)] = tlbEntry{vpn: vpn, pte: pte, writable: pte.Writable}
}

// tlbShootdown evicts the slot caching vpn, if it does. Every rights
// revocation must pass through here before it returns to the caller.
func (pt *PageTable) tlbShootdown(vpn uint64) {
	if pt.tlb == nil {
		return
	}
	e := &pt.tlb[vpn&(tlbSize-1)]
	if e.pte != nil && e.vpn == vpn {
		*e = tlbEntry{}
		pt.tlbStats.Flushes++
	}
}

// LookupFast returns the PTE if the page is present with the required
// access, consulting the TLB first and filling it from the radix tree on a
// miss. It returns nil when the page is absent or the rights are
// insufficient — the caller falls back to the fault path.
func (pt *PageTable) LookupFast(vpn uint64, write bool) *PTE {
	if pt.tlb != nil {
		e := &pt.tlb[vpn&(tlbSize-1)]
		if e.pte != nil && e.vpn == vpn && (!write || e.writable) {
			pt.tlbStats.Hits++
			return e.pte
		}
	}
	pt.tlbStats.Misses++
	pte, ok := pt.tree.Get(vpn)
	if !ok || !pte.Present || (write && !pte.Writable) {
		return nil
	}
	pt.tlbFill(vpn, pte)
	return pte
}

// TLBStats returns a snapshot of this page table's TLB counters.
func (pt *PageTable) TLBStats() TLBStats { return pt.tlbStats }
