// Package mem provides the paged virtual-memory substrate of DeX: 4 KB
// pages holding real bytes, per-node software page tables, and the two-level
// VM structure the paper builds on (§III-D): virtual memory areas (VMAs)
// describing address-space ranges and page-table entries (PTEs) describing
// per-page state.
package mem

import "fmt"

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the page size in bytes, matching the paper's 4 KB pages.
	PageSize = 1 << PageShift
)

// Addr is a virtual address in a process address space.
type Addr uint64

// VPN returns the virtual page number containing a.
func (a Addr) VPN() uint64 { return uint64(a) >> PageShift }

// PageOff returns the offset of a within its page.
func (a Addr) PageOff() int { return int(a) & (PageSize - 1) }

// PageBase returns the address of the first byte of a's page.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// PageAlignUp rounds n up to a multiple of the page size.
func PageAlignUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}
