package dsm

import (
	"bytes"
	"fmt"
)

// CheckInvariants verifies the protocol's global invariants. It is intended
// to be called when the simulation is quiescent (no transaction in flight):
//
//  1. Every directory entry is in a settled state (SharedRead or
//     ExclusiveWrite) consistent with its ownership record — no entry is
//     still in a transfer (busy) state.
//  2. An exclusive writer is the sole owner, its PTE is present and
//     writable, and no other node has the page present.
//  3. With no exclusive writer, the page's home is among the owners, every
//     owner has a present read-only (or home-writable pre-share) mapping,
//     every owner's frame is byte-identical, and no non-owner has the page.
//
// Each entry must also be hosted exactly once, in the table its current home
// reads, and the routes nodes hold must lead to it (checkRoutes).
func (m *Manager) CheckInvariants() error {
	var err error
	seen := make(map[uint64]int)
	m.dir.walk(0, ^uint64(0), func(host int, vpn uint64, de *dirEntry) bool {
		prev, dup := seen[vpn]
		seen[vpn] = host
		atHome, _ := m.dir.get(de.home, vpn)
		switch {
		case dup:
			err = fmt.Errorf("dsm: vpn %#x hosted at both shard %d and shard %d", vpn, prev, host)
		case atHome != de:
			err = fmt.Errorf("dsm: vpn %#x hosted at shard %d but home is %d", vpn, host, de.home)
		default:
			err = m.checkEntry(vpn, de)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	return m.checkRoutes()
}

// checkEntry verifies one directory entry against every node's page table.
func (m *Manager) checkEntry(vpn uint64, de *dirEntry) error {
	if de.busy() {
		return fmt.Errorf("dsm: vpn %#x still busy (state %v)", vpn, de.state)
	}
	if de.state != de.settledState() {
		return fmt.Errorf("dsm: vpn %#x state %v inconsistent with writer %d", vpn, de.state, de.writer)
	}
	if de.writer >= 0 {
		if de.owners != 1<<uint(de.writer) {
			return fmt.Errorf("dsm: vpn %#x writer %d but owners %#x", vpn, de.writer, de.owners)
		}
		// The writer must still hold the page. Its write bit may have
		// been stripped by an mprotect downgrade without changing DSM
		// ownership, so only presence is required.
		pte := m.nodes[de.writer].pt.Lookup(vpn)
		if pte == nil || !pte.Present || pte.Frame == nil {
			return fmt.Errorf("dsm: vpn %#x writer %d lost its mapping", vpn, de.writer)
		}
	} else if !de.has(de.home) {
		return fmt.Errorf("dsm: vpn %#x has no writer and home %d not an owner", vpn, de.home)
	}
	var ref []byte
	for n := range m.nodes {
		pte := m.nodes[n].pt.Lookup(vpn)
		present := pte != nil && pte.Present
		if de.has(n) != present {
			return fmt.Errorf("dsm: vpn %#x node %d directory says owner=%v but present=%v",
				vpn, n, de.has(n), present)
		}
		if !present {
			continue
		}
		if de.writer < 0 && pte.Writable && n != de.home {
			return fmt.Errorf("dsm: vpn %#x node %d writable without exclusive ownership", vpn, n)
		}
		if ref == nil {
			ref = pte.Frame
		} else if !bytes.Equal(ref, pte.Frame) {
			return fmt.Errorf("dsm: vpn %#x replicas diverge between owners", vpn)
		}
	}
	return nil
}
