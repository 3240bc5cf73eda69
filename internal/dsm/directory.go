// directory.go is the ownership-directory layer of the consistency
// protocol (§III-B). It has two halves. The first is dirEntry, one per
// touched page: an explicit state machine — Invalid, SharedRead,
// ExclusiveWrite, plus the two in-transfer states a directory transaction
// moves through — whose every legal transition is centralized here and
// invariant-checked on the way through. The policies (protocol.go) decide
// WHICH transitions to take; the directory guarantees that only legal ones
// can happen, and panics (a protocol bug, never an application error) on any
// other. The second half is the directory type: where the entries are kept
// under each placement (one radix tree at the origin, or one table per
// node), and every operation that has to know which — lookup at a node,
// place and remove, the ordered walk, first-touch materialization, anchors,
// dead-home rebuild, route repair, and running a walk where it may legally
// touch every table. Nothing outside this file and protocol.go knows the
// layout.
package dsm

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/radix"
	"dex/internal/sim"
)

// PageState enumerates the coherence states of one page's directory entry.
type PageState uint8

const (
	// StateInvalid: no copy of the page exists anywhere. An entry is only
	// momentarily Invalid, between its creation and the first-touch
	// materialization at the page's home node.
	StateInvalid PageState = iota
	// StateSharedRead: one or more read replicas exist; the home node is
	// among the owners and its copy is fresh.
	StateSharedRead
	// StateExclusiveWrite: a single writer holds the only (writable) copy.
	StateExclusiveWrite
	// StateTransferShared: a directory transaction is in flight and the
	// underlying ownership is currently shared. Conflicting requests are
	// NACKed until the transaction ends.
	StateTransferShared
	// StateTransferExclusive: a directory transaction is in flight and a
	// writer still holds the page exclusively.
	StateTransferExclusive

	pageStateCount
)

var pageStateNames = [pageStateCount]string{"Invalid", "SharedRead", "ExclusiveWrite", "TransferShared", "TransferExclusive"}

func (s PageState) String() string {
	if s < pageStateCount {
		return pageStateNames[s]
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// Event enumerates the protocol events that drive a directory entry's state
// machine. Each event corresponds to exactly one mutating method on
// dirEntry; the (state × event) legality table below is the single source
// of truth for which transitions exist.
type Event uint8

const (
	// EvFirstTouch materializes a page at its home node: the home owns the
	// zero-filled page exclusively.
	EvFirstTouch Event = iota
	// EvBegin opens a directory transaction; the entry is busy until EvEnd
	// and conflicting requests are NACKed.
	EvBegin
	// EvEnd closes a directory transaction.
	EvEnd
	// EvDowngradeWriter demotes the home's own exclusive copy to a shared
	// one (the home keeps the page read-only).
	EvDowngradeWriter
	// EvPullHome revokes a remote exclusive writer and lands the fresh copy
	// at the home; the old writer optionally keeps a read replica.
	EvPullHome
	// EvGrantShared adds a read replica for the requester.
	EvGrantShared
	// EvGrantExclusive makes the requester the sole (writable) owner after
	// all other copies were revoked.
	EvGrantExclusive
	// EvDropOwner removes one non-home, non-writer replica from the owner
	// set (dead readers, rolled-back read grants, dead-node reclaim).
	EvDropOwner
	// EvReclaimHome returns a page whose exclusive writer is gone to the
	// home node (lost writers, rolled-back write grants, dead-node reclaim).
	EvReclaimHome
	// EvRehome moves the directory home of a page to a new node and makes
	// that node the sole owner (HomeMigrate dead-home recovery: the old home
	// died, ownership is reclaimed to the origin shard).
	EvRehome
	// EvAdoptHome materializes directory authority at a node that has just
	// installed a migrated write grant (DistributedManager only): the entry
	// is freshly constructed in the adopting node's shard table, with the
	// adopter as home and sole exclusive owner. The old home's copy of the
	// record is retired separately, behind a forwarding pointer.
	EvAdoptHome

	eventCount
)

var eventNames = [eventCount]string{"FirstTouch", "Begin", "End", "DowngradeWriter", "PullHome", "GrantShared",
	"GrantExclusive", "DropOwner", "ReclaimHome", "Rehome", "AdoptHome"}

func (e Event) String() string {
	if e < eventCount {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// legalTransitions is the (state × event) legality table. A transition
// absent here is a protocol bug and is rejected with a panic, never
// silently absorbed.
var legalTransitions = [pageStateCount][eventCount]bool{
	StateInvalid: {
		EvFirstTouch: true,
		EvAdoptHome:  true, // install-time authority adoption (DistributedManager)
	},
	StateSharedRead: {
		EvBegin:     true,
		EvDropOwner: true, // dead-node reclaim outside a transaction
		EvRehome:    true, // dead-home reclaim outside a transaction
	},
	StateExclusiveWrite: {
		EvBegin:       true,
		EvDropOwner:   true, // no-op mask clear during dead-node reclaim
		EvReclaimHome: true, // dead writer found outside a transaction
		EvRehome:      true, // dead-home reclaim outside a transaction
	},
	StateTransferShared: {
		EvEnd:            true,
		EvGrantShared:    true,
		EvGrantExclusive: true,
		EvDropOwner:      true, // dead readers, read-grant rollback
		EvRehome:         true, // dead-home recovery during a serve
	},
	StateTransferExclusive: {
		EvEnd:             true,
		EvDowngradeWriter: true,
		EvPullHome:        true,
		EvGrantExclusive:  true, // ownership hand-off writer→writer
		EvDropOwner:       true, // no-op mask clear on a dead non-owner
		EvReclaimHome:     true, // lost writer, write-grant rollback
		EvRehome:          true, // dead-home recovery during a serve
	},
}

// LegalTransition reports whether ev is a legal protocol event for a
// directory entry in state s.
func LegalTransition(s PageState, ev Event) bool {
	if s >= pageStateCount || ev >= eventCount {
		return false
	}
	return legalTransitions[s][ev]
}

// dirEntry is a page's ownership record: its coherence state, its home node
// (the node whose directory partition serves transactions for it — always
// the origin under WriteInvalidate, the last writer under HomeMigrate), the
// owner bitmask, and the exclusive writer (or -1).
type dirEntry struct {
	state  PageState
	home   int
	owners uint64 // bitmask of nodes holding a valid copy
	writer int    // exclusive owner, or -1
	// epoch counts home handoffs under DistributedManager (zero elsewhere).
	// Every piece of routing information — grant replies, redirects,
	// revocation-carried hints, compression hints — is stamped with the
	// epoch of the home it names, and nodes reject updates older than what
	// they already believe. Because a handoff strictly increases the epoch,
	// forwarding pointers form an acyclic graph and every chain walk
	// terminates.
	epoch uint64
}

func newDirEntry(home int) *dirEntry {
	return &dirEntry{state: StateInvalid, home: home, writer: -1}
}

func (d *dirEntry) has(node int) bool { return d.owners&(1<<uint(node)) != 0 }

// busy reports whether a directory transaction is in flight for this page.
func (d *dirEntry) busy() bool {
	return d.state == StateTransferShared || d.state == StateTransferExclusive
}

func (d *dirEntry) ownerList(exclude int) []int {
	var out []int
	for n := 0; n < MaxNodes; n++ {
		if n != exclude && d.owners&(1<<uint(n)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// step gates one protocol event through the legality table.
func (d *dirEntry) step(ev Event) {
	if !LegalTransition(d.state, ev) {
		panic(fmt.Sprintf("dsm: illegal directory transition %v in state %v (owners=%#x writer=%d home=%d)",
			ev, d.state, d.owners, d.writer, d.home))
	}
}

// transferState is the in-transfer state matching the current ownership.
func (d *dirEntry) transferState() PageState {
	if d.writer >= 0 {
		return StateTransferExclusive
	}
	return StateTransferShared
}

// settledState is the quiescent state matching the current ownership.
func (d *dirEntry) settledState() PageState {
	if d.writer >= 0 {
		return StateExclusiveWrite
	}
	return StateSharedRead
}

// firstTouch materializes the page at its home: the home owns the
// zero-filled page exclusively. The caller maps the home's frame.
func (d *dirEntry) firstTouch() {
	d.step(EvFirstTouch)
	d.owners = 1 << uint(d.home)
	d.writer = d.home
	d.state = StateExclusiveWrite
	d.check()
}

// begin opens a directory transaction (the entry goes busy).
func (d *dirEntry) begin() {
	d.step(EvBegin)
	d.state = d.transferState()
	d.check()
}

// end closes a directory transaction.
func (d *dirEntry) end() {
	d.step(EvEnd)
	d.state = d.settledState()
	d.check()
}

// downgradeWriter demotes the home's own exclusive copy to a shared one.
func (d *dirEntry) downgradeWriter() {
	d.step(EvDowngradeWriter)
	if d.writer != d.home {
		panic(fmt.Sprintf("dsm: downgradeWriter with writer %d != home %d", d.writer, d.home))
	}
	d.writer = -1
	d.state = StateTransferShared
	d.check()
}

// pullHome lands the fresh copy of a remotely-written page at the home.
// With keepShared the old writer retains a read replica.
func (d *dirEntry) pullHome(keepShared bool) {
	d.step(EvPullHome)
	if d.writer == d.home {
		panic(fmt.Sprintf("dsm: pullHome from the home node %d itself", d.home))
	}
	w := d.writer
	d.writer = -1
	d.owners = 1 << uint(d.home)
	if keepShared {
		d.owners |= 1 << uint(w)
	}
	d.state = StateTransferShared
	d.check()
}

// grantShared adds a read replica for node.
func (d *dirEntry) grantShared(node int) {
	d.step(EvGrantShared)
	d.owners |= 1 << uint(node)
	d.check()
}

// grantExclusive makes node the sole writable owner; the caller must have
// revoked every other copy already.
func (d *dirEntry) grantExclusive(node int) {
	d.step(EvGrantExclusive)
	d.owners = 1 << uint(node)
	d.writer = node
	d.state = StateTransferExclusive
	d.check()
}

// dropOwner removes node's replica from the owner set. Dropping the home or
// the exclusive writer is illegal (those go through reclaimHome).
func (d *dirEntry) dropOwner(node int) {
	d.step(EvDropOwner)
	if node == d.home {
		panic(fmt.Sprintf("dsm: dropOwner would drop the home node %d", node))
	}
	if node == d.writer {
		panic(fmt.Sprintf("dsm: dropOwner would drop the exclusive writer %d", node))
	}
	d.owners &^= 1 << uint(node)
	d.check()
}

// reclaimHome returns a page whose exclusive writer is gone to the home
// node. The caller maps the home's replacement frame.
func (d *dirEntry) reclaimHome() {
	d.step(EvReclaimHome)
	d.writer = -1
	d.owners = 1 << uint(d.home)
	if d.busy() {
		d.state = StateTransferShared
	} else {
		d.state = StateSharedRead
	}
	d.check()
}

// rehome moves the directory home to newHome and makes it the sole owner
// of the (replacement) copy. Used by HomeMigrate dead-home recovery: the
// previous home died, so the origin shard takes the page back. The caller
// maps newHome's replacement frame and scrubs every other node's PTE.
func (d *dirEntry) rehome(newHome int) {
	d.step(EvRehome)
	d.home = newHome
	d.owners = 1 << uint(newHome)
	d.writer = -1
	if d.busy() {
		d.state = StateTransferShared
	} else {
		d.state = StateSharedRead
	}
	d.check()
}

// adoptHome materializes directory authority for a freshly migrated write
// grant at node (DistributedManager): the adopter becomes home and sole
// exclusive owner. The caller has already installed the granted frame.
func (d *dirEntry) adoptHome(node int) {
	d.step(EvAdoptHome)
	d.home = node
	d.owners = 1 << uint(node)
	d.writer = node
	d.state = StateExclusiveWrite
	d.check()
}

// check verifies the structural invariant of the entry's current state.
func (d *dirEntry) check() {
	bad := ""
	switch d.state {
	case StateSharedRead:
		switch {
		case d.writer >= 0:
			bad = "shared entry has a writer"
		case d.owners == 0:
			bad = "shared entry has no owners"
		case !d.has(d.home):
			bad = "shared entry lost its home copy"
		}
	case StateExclusiveWrite:
		switch {
		case d.writer < 0:
			bad = "exclusive entry has no writer"
		case d.owners != 1<<uint(d.writer):
			bad = "exclusive entry has co-owners"
		}
	case StateTransferShared:
		switch {
		case d.writer >= 0:
			bad = "shared transfer has a writer"
		case !d.has(d.home):
			bad = "shared transfer lost its home copy"
		}
	case StateTransferExclusive:
		switch {
		case d.writer < 0:
			bad = "exclusive transfer has no writer"
		case d.owners != 1<<uint(d.writer):
			bad = "exclusive transfer has co-owners"
		}
	}
	if bad != "" {
		panic(fmt.Sprintf("dsm: directory invariant violated: %s (state=%v owners=%#x writer=%d home=%d)",
			bad, d.state, d.owners, d.writer, d.home))
	}
}

// ---------------------------------------------------------------------------
// Placement: where the entries are kept.

// directory keeps every dirEntry of one process. Under the central
// placement that is one radix tree indexed by VPN — the origin's, which
// under HomeMigrate (serialized) every node consults directly. Under the
// sharded placement each node has a table of its own: an entry lives in
// exactly one, its current home's, and is only touched on that node's lane
// or on the quiescent global lane.
type directory struct {
	tree   radix.Tree[*dirEntry]
	shards []map[uint64]*dirEntry // nil under the central placement
}

// shard switches the still-empty directory to the sharded placement.
func (d *directory) shard(nodes int) {
	d.shards = make([]map[uint64]*dirEntry, nodes)
	for i := range d.shards {
		d.shards[i] = make(map[uint64]*dirEntry)
	}
}

func (d *directory) sharded() bool { return d.shards != nil }

// get returns vpn's entry as node sees it: the tree's under central, the one
// in node's own table — present only while node is the page's home — under
// sharded.
func (d *directory) get(node int, vpn uint64) (*dirEntry, bool) {
	if d.shards == nil {
		return d.tree.Get(vpn)
	}
	de, ok := d.shards[node][vpn]
	return de, ok
}

// find returns vpn's entry wherever it lives. Under sharded it scans the
// tables in node order and must only run where lanes are quiescent.
func (d *directory) find(vpn uint64) (*dirEntry, bool) {
	for _, tbl := range d.shards {
		if de, ok := tbl[vpn]; ok {
			return de, true
		}
	}
	return d.tree.Get(vpn)
}

// walk visits every entry with lo <= vpn <= hi, and the node hosting it, in
// a deterministic order: ascending VPN under central; node by node, ascending
// VPN within a node, under sharded. A node's keys are snapshotted when the
// walk reaches it, so fn may move the entry it is handed to another table.
func (d *directory) walk(lo, hi uint64, fn func(host int, vpn uint64, de *dirEntry) bool) {
	if d.shards == nil {
		d.tree.ForRange(lo, hi, func(vpn uint64, de *dirEntry) bool { return fn(de.home, vpn, de) })
		return
	}
	for host, tbl := range d.shards {
		for _, vpn := range sortedKeys(tbl) {
			if vpn >= lo && vpn <= hi && !fn(host, vpn, tbl[vpn]) {
				return
			}
		}
	}
}

// sortedKeys returns the keys of a per-node table in ascending order, so
// walks over them are deterministic.
func sortedKeys[V any](tbl map[uint64]V) []uint64 { return slices.Sorted(maps.Keys(tbl)) }

// anchor is where a lookup for vpn starts when the asking node holds no
// route: the origin under central, a static splitmix64-style hash of the VPN
// over the nodes under sharded. Authority itself may be anywhere.
func (m *Manager) anchor(vpn uint64) int {
	if !m.dir.sharded() {
		return m.origin
	}
	z := vpn + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(m.nodes)))
}

// liveAnchor is where requests for vpn fall back to once their believed home
// is confirmed dead, and where a dead home's entries are rebuilt: the anchor,
// or under sharded the next node on the ring past confirmed-dead ones. The
// origin cannot be reclaimed, so the walk always terminates.
func (m *Manager) liveAnchor(vpn uint64) int {
	if !m.dir.sharded() {
		return m.origin
	}
	n := m.anchor(vpn)
	for i := 0; i < len(m.nodes); i++ {
		s := (n + i) % len(m.nodes)
		if !m.dead(s) {
			return s
		}
	}
	return m.origin
}

// materialize is a page's first touch: home owns the zero-filled page
// exclusively, and its frame is mapped immediately so that the directory
// invariant — the home's copy is up to date unless a remote holds the page
// exclusively — holds from the start. The caller places the entry.
func (m *Manager) materialize(home int, vpn uint64) *dirEntry {
	m.nodes[home].pt.SetAccess(vpn, m.pool(home).GetZeroed(), mem.AccessWrite)
	de := newDirEntry(home)
	de.firstTouch()
	return de
}

// entry returns the central directory's entry for vpn, materializing it at
// the origin — the initial home of every page — on first touch.
func (m *Manager) entry(vpn uint64) (*dirEntry, bool) {
	created := false
	de, _ := m.dir.tree.GetOrCreate(vpn, func() *dirEntry {
		created = true
		return m.materialize(m.origin, vpn)
	})
	return de, created
}

// frameAt returns node's current frame for vpn. It panics if the node has
// no fresh copy, which would be a protocol invariant violation.
func (m *Manager) frameAt(node int, vpn uint64) []byte {
	pte := m.nodes[node].pt.Lookup(vpn)
	if pte == nil || pte.Frame == nil {
		panic(fmt.Sprintf("dsm: copy of vpn %#x at node %d is stale", vpn, node))
	}
	return pte.Frame
}

// atQuiescence runs fn where it may touch every node's tables: at once under
// central (the tree is the serving lane's own, or the run is serialized), as
// a global-lane event — scheduled through node's lane view, past the
// lookahead window — under sharded.
func (m *Manager) atQuiescence(node int, fn func()) {
	if !m.dir.sharded() {
		fn()
		return
	}
	v := m.view(node)
	v.AfterOn(sim.GlobalLane, max(20*time.Microsecond, v.Lookahead()), fn)
}

// quiesce is atQuiescence for a task that needs fn's result: t parks until
// fn has run.
func (m *Manager) quiesce(t *sim.Task, node int, reason string, fn func()) {
	if !m.dir.sharded() {
		fn()
		return
	}
	done := false
	m.atQuiescence(node, func() {
		defer func() { done = true; t.Unpark() }()
		fn()
	})
	for !done {
		t.Park(reason)
	}
}

// rehome rebuilds the entry of a page whose home died at the page's live
// anchor: adopt the target's own replica if it has one, else a surviving
// reader's copy, else the caller-supplied snapshot (a serve's retained grant
// data), and only as a last resort a zero-filled frame (counted in
// PagesLost). Every other surviving replica is dropped so the owner mask
// matches PTE presence afterwards — those nodes re-fault and the redirect
// machinery repairs their routes. Under sharded the entry also moves into
// the target's table and the anchor's forwarding pointer is repointed, so it
// runs only where lanes are quiescent. Reports whether the page's contents
// were lost.
func (m *Manager) rehome(vpn uint64, de *dirEntry, dead int, fallback []byte) bool {
	target := m.liveAnchor(vpn)
	var frame []byte
	if pte := m.nodes[target].pt.Lookup(vpn); pte != nil && pte.Present {
		frame = pte.Frame
	} else {
		for _, n := range de.ownerList(dead) {
			if m.dead(n) {
				continue
			}
			if pte := m.nodes[n].pt.Lookup(vpn); pte != nil && pte.Present {
				frame = mem.CloneFrame(pte.Frame)
				break
			}
		}
		if frame == nil && fallback != nil {
			frame = mem.CloneFrame(fallback)
		}
	}
	for _, n := range de.ownerList(dead) {
		if n == target {
			continue
		}
		if pte := m.nodes[n].pt.Lookup(vpn); pte != nil && pte.Present {
			f := pte.Frame
			m.nodes[n].pt.Invalidate(vpn)
			m.freeFrame(n, f)
		}
	}
	de.rehome(target)
	lost := frame == nil
	if lost {
		frame = m.pool(target).GetZeroed()
		m.stats.PagesLost++
	}
	m.nodes[target].pt.SetAccess(vpn, frame, mem.AccessRead)
	m.stats.PagesRehomed++
	span := "hm.rehome"
	if m.dir.sharded() {
		span = "dist.rebuild"
		// The rebuild is a home handoff: bump the entry epoch so routes
		// learned before the crash can never override the repaired ones.
		de.epoch++
		delete(m.dir.shards[dead], vpn)
		m.dir.shards[target][vpn] = de
		tns := m.nodes[target]
		delete(tns.fwd, vpn)
		if de.epoch > tns.routeEpoch[vpn] {
			tns.routeEpoch[vpn] = de.epoch
		}
		if anchor := m.anchor(vpn); anchor != target {
			ans := m.nodes[anchor]
			ans.fwd[vpn] = target
			ans.routeEpoch[vpn] = de.epoch
		}
		m.stats.DirRebuilt++
	}
	if m.rec != nil {
		// Recorded on the lane the page lands on.
		lostArg := int64(0)
		if lost {
			lostArg = 1
		}
		rec := m.rec.OnLane(target)
		rec.SpanAt("dsm", span, target, -1, m.view(target).Now(), 0,
			obs.Hex("vpn", vpn),
			obs.Int("dead", int64(dead)),
			obs.Int("lost", lostArg))
	}
	return lost
}

// stranded returns vpn's entry, as the node that just served it sees it, if
// the entry sits idle at a home that died; nil otherwise (under sharded also
// when a completed write grant moved authority out of served's table).
func (m *Manager) stranded(served int, vpn uint64) *dirEntry {
	de, ok := m.dir.get(served, vpn)
	if !ok || de.busy() || de.home == m.origin || !m.dead(de.home) {
		return nil
	}
	return de
}

// rebuiltRoute records where (and at which epoch) a dead home's entry was
// rebuilt, so surviving routes aimed at the dead node can be repointed with
// a route that post-crash traffic cannot override backward.
type rebuiltRoute struct {
	home  int
	epoch uint64
}

// repairRoutes runs when dead's reclaim commits: every surviving route aimed
// at dead is repointed at the rebuilt location (sharded, where a route
// carries an epoch) or forgotten, which points it back at the anchor. Under
// sharded the dead node's own routes are reset and it is marked reclaimed:
// pages anchored there are thereafter resolved at the live ring shard.
func (m *Manager) repairRoutes(dead int, rebuilt map[uint64]rebuiltRoute) {
	for _, ns := range m.nodes {
		for vpn, h := range ns.fwd {
			if h != dead {
				continue
			}
			if r, ok := rebuilt[vpn]; ok && m.dir.sharded() {
				ns.fwd[vpn] = r.home
				ns.routeEpoch[vpn] = r.epoch
			} else {
				delete(ns.fwd, vpn)
				delete(ns.routeEpoch, vpn)
			}
		}
	}
	if m.dir.sharded() {
		ns := m.nodes[dead]
		ns.fwd = make(map[uint64]int)
		ns.routeEpoch = make(map[uint64]uint64)
		ns.reclaimed = true
	}
}

// dropRange removes every entry with lo <= vpn <= hi unless one of them is
// busy, which it reports instead. Along with the entries go the mappings of
// the nodes that hold a table and, under sharded, every route in the range.
func (m *Manager) dropRange(lo, hi uint64) (busyVPN uint64, busy bool) {
	type slot struct {
		host int
		vpn  uint64
	}
	var victims []slot
	m.dir.walk(lo, hi, func(host int, vpn uint64, de *dirEntry) bool {
		if busy = de.busy(); busy {
			busyVPN = vpn
			return false
		}
		victims = append(victims, slot{host, vpn})
		return true
	})
	if busy {
		return busyVPN, true
	}
	if !m.dir.sharded() {
		for _, v := range victims {
			m.dir.tree.Delete(v.vpn)
		}
		m.ReclaimRange(m.origin, lo, hi)
		return 0, false
	}
	for _, v := range victims {
		delete(m.dir.shards[v.host], v.vpn)
	}
	for n, ns := range m.nodes {
		for vpn := range ns.fwd {
			if vpn >= lo && vpn <= hi {
				delete(ns.fwd, vpn)
			}
		}
		m.ReclaimRange(n, lo, hi)
	}
	return 0, false
}

// needsLocate reports whether a lookup for vpn at node must go through
// locate: node holds no entry and no route, the page's static anchor is
// someone else, confirmed dead and already reclaimed, and node is the live
// ring shard the page's lookups fall back to.
func (m *Manager) needsLocate(node int, vpn uint64) bool {
	a := m.anchor(vpn)
	return a != node && m.dead(a) && m.nodes[a].reclaimed && m.liveAnchor(vpn) == node
}

// locate resolves a page whose static anchor shard died and has been
// reclaimed, from node — the page's live ring shard, where dead-anchor
// lookups fall back to but where no entry or forwarding pointer may exist
// (the breadcrumb died with the anchor, or the page was never touched). If
// the entry exists at a live shard, a route to it is planted here; if it
// exists only at a dead shard (a transaction still unwinding), nothing
// changes and the caller retries; if it exists nowhere, the page is
// materialized here — node becomes its effective anchor.
func (m *Manager) locate(t *sim.Task, node int, vpn uint64) {
	m.quiesce(t, node, "dist locate", func() {
		ns := m.nodes[node]
		_, hosted := m.dir.get(node, vpn)
		_, fwded := ns.fwd[vpn]
		if hosted || fwded {
			return // a concurrent repair or locate beat us
		}
		de, found := m.dir.find(vpn)
		switch {
		case !found:
			// First touch at the effective anchor. Epoch 1 outranks any
			// stamp-0 route leftover that still names the dead anchor.
			de = m.materialize(node, vpn)
			de.epoch = 1
			m.dir.shards[node][vpn] = de
		case !m.dead(de.home):
			ns.fwd[vpn] = de.home
		default:
			return
		}
		if de.epoch > ns.routeEpoch[vpn] {
			ns.routeEpoch[vpn] = de.epoch
		}
	})
}

// checkRoutes verifies the sharded forwarding graph has no cycles: from
// every node, following the route table (forwarding pointer if present,
// static anchor otherwise) must reach the shard hosting the page within one
// step per node. The epoch gate on route updates is what guarantees this;
// the check walks every route so a gating bug cannot hide. Chains through a
// confirmed-dead node are skipped — they are repaired when the death
// commits (ReclaimDeadNode), not before. Under central there is nothing to
// walk: a redirect reads the authoritative tree, so no route is ever
// followed twice.
func (m *Manager) checkRoutes() error {
	if !m.dir.sharded() {
		return nil
	}
	for n, ns := range m.nodes {
		for _, vpn := range sortedKeys(ns.fwd) {
			cur := n
			ok := false
			for step := 0; step <= len(m.nodes); step++ {
				if m.dead(cur) {
					ok = true // settled by the pending dead-node reclaim
					break
				}
				if _, hosted := m.dir.get(cur, vpn); hosted {
					ok = true
					break
				}
				next := m.requestTarget(cur, vpn)
				if _, fwded := m.nodes[cur].fwd[vpn]; !fwded && next == cur {
					// Unrouted anchor without an entry: the page was
					// reclaimed or never materialized; the walk would
					// first-touch here.
					ok = true
					break
				}
				if next == cur {
					return fmt.Errorf("dsm: vpn %#x route at node %d points at itself", vpn, cur)
				}
				cur = next
			}
			if !ok {
				return fmt.Errorf("dsm: vpn %#x forwarding chain from node %d does not terminate", vpn, n)
			}
		}
	}
	return nil
}
