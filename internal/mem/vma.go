package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Prot is a VMA protection mask.
type Prot int

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
)

func (p Prot) String() string {
	s := [2]byte{'-', '-'}
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	return string(s[:])
}

// CanRead reports whether the protection permits loads.
func (p Prot) CanRead() bool { return p&ProtRead != 0 }

// CanWrite reports whether the protection permits stores.
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

// Errors returned by address-space operations.
var (
	ErrNoVMA      = errors.New("mem: address not mapped by any VMA")
	ErrOverlap    = errors.New("mem: VMA overlap")
	ErrBadRange   = errors.New("mem: invalid range")
	ErrOutOfSpace = errors.New("mem: address space exhausted")
)

// VMA describes one contiguous mapped region: its range, protection, and a
// developer-facing label used by the page-fault profiler to attribute faults
// to program objects.
type VMA struct {
	Start Addr
	Len   uint64 // bytes, page multiple
	Prot  Prot
	Label string
}

// End returns the first address past the region.
func (v VMA) End() Addr { return v.Start + Addr(v.Len) }

// Contains reports whether a falls inside the region.
func (v VMA) Contains(a Addr) bool { return a >= v.Start && a < v.End() }

func (v VMA) String() string {
	return fmt.Sprintf("[%s,%s) %s %q", v.Start, v.End(), v.Prot, v.Label)
}

// VMASet is an ordered, non-overlapping set of VMAs. It is used both as the
// authoritative list at the origin and as the lazily synchronized cache on
// remote nodes (§III-D).
type VMASet struct {
	vmas []VMA // sorted by Start, non-overlapping
	gen  uint64
}

// Gen returns the set's generation: it moves whenever the regions may have
// (Insert, Carve and Protect, and so Upsert), so what Find answered stays
// true while it does not.
func (s *VMASet) Gen() uint64 { return s.gen }

// Len reports the number of regions.
func (s *VMASet) Len() int { return len(s.vmas) }

// All returns a copy of the regions in address order.
func (s *VMASet) All() []VMA {
	out := make([]VMA, len(s.vmas))
	copy(out, s.vmas)
	return out
}

// Find returns the VMA containing a.
func (s *VMASet) Find(a Addr) (VMA, bool) {
	i := s.searchContaining(a)
	if i < 0 {
		return VMA{}, false
	}
	return s.vmas[i], true
}

func (s *VMASet) searchContaining(a Addr) int {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End() > a })
	if i < len(s.vmas) && s.vmas[i].Contains(a) {
		return i
	}
	return -1
}

// Insert adds a region. The range must be page aligned and must not overlap
// an existing region.
func (s *VMASet) Insert(v VMA) error {
	if v.Len == 0 || v.Start.PageOff() != 0 || v.Len%PageSize != 0 {
		return fmt.Errorf("%w: %v", ErrBadRange, v)
	}
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= v.Start })
	if i > 0 && s.vmas[i-1].End() > v.Start {
		return fmt.Errorf("%w: %v overlaps %v", ErrOverlap, v, s.vmas[i-1])
	}
	if i < len(s.vmas) && s.vmas[i].Start < v.End() {
		return fmt.Errorf("%w: %v overlaps %v", ErrOverlap, v, s.vmas[i])
	}
	s.vmas = append(s.vmas, VMA{})
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
	s.gen++
	return nil
}

// Upsert inserts or replaces region state for the exact range of v, carving
// any overlap first. Remote VMA caches use it to apply origin updates.
func (s *VMASet) Upsert(v VMA) error {
	if err := s.Carve(v.Start, v.Len); err != nil && !errors.Is(err, ErrNoVMA) {
		return err
	}
	return s.Insert(v)
}

// Carve removes [start, start+length) from the set, splitting regions that
// partially overlap. Removing an unmapped range is not an error (matching
// munmap semantics); ErrBadRange is returned for unaligned input.
func (s *VMASet) Carve(start Addr, length uint64) error {
	if length == 0 || start.PageOff() != 0 || length%PageSize != 0 {
		return fmt.Errorf("%w: carve [%s, +%d)", ErrBadRange, start, length)
	}
	s.split(start, start+Addr(length), false, 0)
	return nil
}

// Protect sets the protection of [start, start+length), splitting regions as
// needed. Every page in the range must be mapped.
func (s *VMASet) Protect(start Addr, length uint64, prot Prot) error {
	if length == 0 || start.PageOff() != 0 || length%PageSize != 0 {
		return fmt.Errorf("%w: protect [%s, +%d)", ErrBadRange, start, length)
	}
	end := start + Addr(length)
	if !s.covered(start, end) {
		return fmt.Errorf("%w: protect [%s, %s)", ErrNoVMA, start, end)
	}
	s.split(start, end, true, prot)
	return nil
}

// split rebuilds the set around [start, end): regions outside the range are
// kept, a region that straddles an edge keeps its part outside, and the
// overlapped middle is dropped, or kept with protection prot when protect is
// set. Every piece is appended in address order.
func (s *VMASet) split(start, end Addr, protect bool, prot Prot) {
	var out []VMA
	for _, v := range s.vmas {
		if v.End() <= start || v.Start >= end {
			out = append(out, v)
			continue
		}
		if v.Start < start {
			left := v
			left.Len = uint64(start - v.Start)
			out = append(out, left)
		}
		if protect {
			mid := v
			mid.Start = max(v.Start, start)
			mid.Len = uint64(min(v.End(), end) - mid.Start)
			mid.Prot = prot
			out = append(out, mid)
		}
		if v.End() > end {
			right := v
			right.Start = end
			right.Len = uint64(v.End() - end)
			out = append(out, right)
		}
	}
	s.vmas = out
	s.gen++
}

// covered reports whether [start, end) is fully mapped.
func (s *VMASet) covered(start, end Addr) bool {
	a := start
	for a < end {
		i := s.searchContaining(a)
		if i < 0 {
			return false
		}
		a = s.vmas[i].End()
	}
	return true
}

// AddressSpace is the authoritative address-space state kept at a process's
// origin node: the VMA set plus a bump allocator for new mappings.
type AddressSpace struct {
	VMAs VMASet
	next Addr
	top  Addr
}

// Address-space layout: mappings are handed out from a 1 GiB-aligned base,
// leaving page zero unmapped so that address 0 faults like a null pointer.
const (
	spaceBase Addr = 0x0000_4000_0000
	spaceTop  Addr = 0x0000_8f00_0000_0000 // fits the radix tree's 36-bit VPN space
)

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: spaceBase, top: spaceTop}
}

// Mmap allocates a fresh page-aligned region of at least size bytes with the
// given protection and label, returning its base address.
func (as *AddressSpace) Mmap(size uint64, prot Prot, label string) (Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("%w: zero-length mmap", ErrBadRange)
	}
	length := PageAlignUp(size)
	if as.next+Addr(length) > as.top {
		return 0, ErrOutOfSpace
	}
	v := VMA{Start: as.next, Len: length, Prot: prot, Label: label}
	if err := as.VMAs.Insert(v); err != nil {
		return 0, err
	}
	// Leave a guard page between mappings so off-by-one overruns fault.
	as.next += Addr(length) + PageSize
	return v.Start, nil
}

// Munmap removes [addr, addr+size). size is rounded up to a page multiple.
func (as *AddressSpace) Munmap(addr Addr, size uint64) error {
	return as.VMAs.Carve(addr, PageAlignUp(size))
}

// Mprotect changes the protection of [addr, addr+size).
func (as *AddressSpace) Mprotect(addr Addr, size uint64, prot Prot) error {
	return as.VMAs.Protect(addr, PageAlignUp(size), prot)
}
