package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x4000_1234)
	if a.VPN() != 0x40001 {
		t.Fatalf("VPN = %#x", a.VPN())
	}
	if a.PageOff() != 0x234 {
		t.Fatalf("PageOff = %#x", a.PageOff())
	}
	if a.PageBase() != 0x4000_1000 {
		t.Fatalf("PageBase = %v", a.PageBase())
	}
	if PageAlignUp(1) != PageSize || PageAlignUp(PageSize) != PageSize || PageAlignUp(PageSize+1) != 2*PageSize {
		t.Fatal("PageAlignUp wrong")
	}
}

func TestPageTableBasics(t *testing.T) {
	var pt PageTable
	if pt.Lookup(5) != nil {
		t.Fatal("Lookup on empty table non-nil")
	}
	f := NewFrame()
	f[0] = 0xAB
	pte := pt.Map(5, f, true)
	if !pte.Present || !pte.Writable || pte.Frame[0] != 0xAB {
		t.Fatalf("bad PTE after Map: %+v", pte)
	}
	if !pt.Downgrade(5) {
		t.Fatal("Downgrade failed")
	}
	if pt.Lookup(5).Writable {
		t.Fatal("still writable after downgrade")
	}
	if pt.Downgrade(5) {
		t.Fatal("second Downgrade reported success")
	}
	if !pt.Invalidate(5) {
		t.Fatal("Invalidate failed")
	}
	if pte := pt.Lookup(5); pte.Present || pte.Frame != nil {
		t.Fatalf("mapping survived invalidate: %+v", pte)
	}
	if pt.Invalidate(5) {
		t.Fatal("double invalidate reported success")
	}
}

func TestPageTableInvalidateRange(t *testing.T) {
	var pt PageTable
	for vpn := uint64(10); vpn < 20; vpn++ {
		pt.Map(vpn, NewFrame(), false)
	}
	if n := pt.ReclaimRange(12, 15, nil); n != 4 {
		t.Fatalf("ReclaimRange dropped %d, want 4", n)
	}
	if pt.Present() != 6 {
		t.Fatalf("Present = %d, want 6", pt.Present())
	}
	if pt.Lookup(12).Present || !pt.Lookup(16).Present {
		t.Fatal("wrong pages invalidated")
	}
}

func TestVMASetInsertFind(t *testing.T) {
	var s VMASet
	mustInsert := func(start Addr, pages int, label string) {
		t.Helper()
		v := VMA{Start: start, Len: uint64(pages) * PageSize, Prot: ProtRead | ProtWrite, Label: label}
		if err := s.Insert(v); err != nil {
			t.Fatalf("Insert(%v): %v", v, err)
		}
	}
	mustInsert(0x10000, 4, "a")
	mustInsert(0x30000, 2, "b")
	mustInsert(0x20000, 1, "c") // out of order insert
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.All()
	if all[0].Label != "a" || all[1].Label != "c" || all[2].Label != "b" {
		t.Fatalf("not sorted: %v", all)
	}
	v, ok := s.Find(0x10000 + 3*PageSize)
	if !ok || v.Label != "a" {
		t.Fatalf("Find inside a = %v,%v", v, ok)
	}
	if _, ok := s.Find(0x10000 + 4*PageSize); ok {
		t.Fatal("Find just past end succeeded")
	}
	if _, ok := s.Find(0); ok {
		t.Fatal("Find(0) succeeded")
	}
}

func TestVMASetOverlapRejected(t *testing.T) {
	var s VMASet
	base := VMA{Start: 0x10000, Len: 4 * PageSize, Prot: ProtRead}
	if err := s.Insert(base); err != nil {
		t.Fatal(err)
	}
	cases := []VMA{
		{Start: 0x10000, Len: PageSize},                  // exact prefix
		{Start: 0x10000 + 3*PageSize, Len: 2 * PageSize}, // tail overlap
		{Start: 0x10000 - PageSize, Len: 2 * PageSize},   // head overlap
	}
	for _, v := range cases {
		if err := s.Insert(v); !errors.Is(err, ErrOverlap) {
			t.Errorf("Insert(%v) err = %v, want ErrOverlap", v, err)
		}
	}
	if err := s.Insert(VMA{Start: 0x10001, Len: PageSize}); !errors.Is(err, ErrBadRange) {
		t.Error("unaligned insert accepted")
	}
	if err := s.Insert(VMA{Start: 0x50000, Len: 0}); !errors.Is(err, ErrBadRange) {
		t.Error("zero-length insert accepted")
	}
}

func TestVMACarveSplits(t *testing.T) {
	var s VMASet
	if err := s.Insert(VMA{Start: 0x10000, Len: 10 * PageSize, Prot: ProtRead | ProtWrite, Label: "big"}); err != nil {
		t.Fatal(err)
	}
	// Punch a hole in the middle.
	if err := s.Carve(0x10000+3*PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	all := s.All()
	if len(all) != 2 {
		t.Fatalf("regions after carve: %v", all)
	}
	if all[0].Len != 3*PageSize || all[1].Start != 0x10000+5*PageSize || all[1].Len != 5*PageSize {
		t.Fatalf("bad split: %v", all)
	}
	if _, ok := s.Find(0x10000 + 4*PageSize); ok {
		t.Fatal("hole still mapped")
	}
	// Carving unmapped space is a no-op, not an error.
	if err := s.Carve(0x90000, PageSize); err != nil {
		t.Fatalf("carve of unmapped range: %v", err)
	}
	// Carve spanning the remaining head region entirely.
	if err := s.Carve(0x10000, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("regions = %v", s.All())
	}
}

func TestVMAProtectSplits(t *testing.T) {
	var s VMASet
	if err := s.Insert(VMA{Start: 0x10000, Len: 6 * PageSize, Prot: ProtRead | ProtWrite, Label: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(0x10000+2*PageSize, 2*PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	all := s.All()
	if len(all) != 3 {
		t.Fatalf("regions = %v", all)
	}
	if all[1].Prot != ProtRead || all[1].Label != "x" {
		t.Fatalf("middle region = %v", all[1])
	}
	if all[0].Prot != (ProtRead|ProtWrite) || all[2].Prot != (ProtRead|ProtWrite) {
		t.Fatalf("outer regions changed: %v", all)
	}
	// Protecting a range with a hole fails.
	if err := s.Carve(0x10000+4*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(0x10000, 6*PageSize, ProtRead); !errors.Is(err, ErrNoVMA) {
		t.Fatalf("Protect across hole err = %v", err)
	}
}

func TestVMAUpsert(t *testing.T) {
	var s VMASet
	if err := s.Insert(VMA{Start: 0x10000, Len: 4 * PageSize, Prot: ProtRead | ProtWrite}); err != nil {
		t.Fatal(err)
	}
	// Remote cache applies an origin update overlapping the stale entry.
	if err := s.Upsert(VMA{Start: 0x10000 + PageSize, Len: 2 * PageSize, Prot: ProtRead, Label: "new"}); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Find(0x10000 + PageSize)
	if !ok || v.Prot != ProtRead || v.Label != "new" {
		t.Fatalf("upserted region = %v,%v", v, ok)
	}
}

func TestAddressSpaceMmap(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Mmap(100, ProtRead|ProtWrite, "small")
	if err != nil {
		t.Fatal(err)
	}
	if a.PageOff() != 0 {
		t.Fatalf("mmap not page aligned: %v", a)
	}
	b, err := as.Mmap(3*PageSize, ProtRead, "big")
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("allocations not monotonic: %v then %v", a, b)
	}
	// Guard page between regions.
	if _, ok := as.VMAs.Find(a + PageSize); ok {
		t.Fatal("guard page is mapped")
	}
	v, ok := as.VMAs.Find(b + 2*PageSize)
	if !ok || v.Label != "big" {
		t.Fatalf("Find in big = %v,%v", v, ok)
	}
	if _, err := as.Mmap(0, ProtRead, ""); !errors.Is(err, ErrBadRange) {
		t.Fatal("zero-size mmap accepted")
	}
}

func TestAddressSpaceMunmapProtect(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.Mmap(4*PageSize, ProtRead|ProtWrite, "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(a, PageSize+1); err != nil { // rounds to 2 pages
		t.Fatal(err)
	}
	if _, ok := as.VMAs.Find(a + PageSize); ok {
		t.Fatal("second page still mapped after rounded munmap")
	}
	if err := as.Mprotect(a+2*Addr(PageSize), 2*PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	v, _ := as.VMAs.Find(a + 2*Addr(PageSize))
	if v.Prot != ProtRead {
		t.Fatalf("mprotect not applied: %v", v)
	}
}

// TestQuickVMASet property-tests Carve/Insert invariants: regions stay
// sorted and non-overlapping under random operations.
func TestQuickVMASet(t *testing.T) {
	f := func(ops []struct {
		Page  uint16
		Pages uint8
		Del   bool
	}) bool {
		var s VMASet
		for _, op := range ops {
			start := Addr(uint64(op.Page)) * PageSize
			length := (uint64(op.Pages%16) + 1) * PageSize
			if op.Del {
				if err := s.Carve(start, length); err != nil {
					return false
				}
			} else {
				// Insert may legitimately fail on overlap; carve-then-insert
				// must always succeed.
				if err := s.Upsert(VMA{Start: start, Len: length, Prot: ProtRead}); err != nil {
					return false
				}
			}
			all := s.All()
			for i := 1; i < len(all); i++ {
				if all[i-1].End() > all[i].Start {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A generation moves with everything that can change what was read through it:
// a PTE's with Map, Invalidate and Downgrade (and not with a lookup), a VMA
// set's with Insert, Carve, Protect and Upsert (and not with Find).
func TestGenerationsMove(t *testing.T) {
	var pt PageTable
	pte := pt.Map(7, NewFrame(), true)
	for _, step := range []struct {
		name  string
		do    func()
		moves bool
	}{
		{"LookupFast", func() { pt.LookupFast(7, true) }, false},
		{"Lookup", func() { pt.Lookup(7) }, false},
		{"Downgrade", func() { pt.Downgrade(7) }, true},
		{"Downgrade of a read-only page", func() { pt.Downgrade(7) }, false},
		{"Map", func() { pt.Map(7, pte.Frame, true) }, true},
		{"Invalidate", func() { pt.Invalidate(7) }, true},
		{"Map after Invalidate", func() { pt.Map(7, NewFrame(), false) }, true},
	} {
		before := pte.Gen
		step.do()
		if moved := pte.Gen != before; moved != step.moves {
			t.Errorf("PTE generation after %s: moved = %v, want %v", step.name, moved, step.moves)
		}
	}

	var s VMASet
	v := VMA{Start: 0x10000, Len: 4 * PageSize, Prot: ProtRead | ProtWrite}
	for _, step := range []struct {
		name  string
		do    func() error
		moves bool
	}{
		{"Insert", func() error { return s.Insert(v) }, true},
		{"Find", func() error { s.Find(v.Start); return nil }, false},
		{"Protect", func() error { return s.Protect(v.Start, PageSize, ProtRead) }, true},
		{"Carve", func() error { return s.Carve(v.Start+PageSize, PageSize) }, true},
		{"Upsert", func() error { return s.Upsert(v) }, true},
	} {
		before := s.Gen()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if moved := s.Gen() != before; moved != step.moves {
			t.Errorf("VMA set generation after %s: moved = %v, want %v", step.name, moved, step.moves)
		}
	}
}
