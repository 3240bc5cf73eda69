// directory.go is the ownership-directory layer of the consistency
// protocol (§III-B). It has two halves. The first is dirEntry, one per
// touched page: an explicit state machine — Invalid, SharedRead,
// ExclusiveWrite, plus the two in-transfer states a directory transaction
// moves through — whose every legal transition is centralized here and
// invariant-checked on the way through. The policies (protocol.go) decide
// WHICH transitions to take; the directory guarantees that only legal ones
// can happen, and panics (a protocol bug, never an application error) on any
// other. The second half is the directory type: the radix tables the entries
// are kept in, which nodes host one and which table each node reads — so
// placement is data — behind get / put / remove / find / walk; and beside it
// the route record nodes keep about pages homed elsewhere. What is built on
// those reads the same under either placement: anchors, first touch,
// dead-home rebuild, route repair, the range drop, and running work where it
// may legally touch every table. Nothing outside the directory's methods
// knows the layout.
package dsm

import (
	"fmt"
	"maps"
	"math/bits"
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
	// that node the sole owner (dead-home recovery where authority
	// migrates: the old home died, the page is rebuilt at its live anchor).
	EvRehome
	// EvAdoptHome materializes directory authority at a node that has just
	// installed a migrated write grant (where authority migrates): the entry
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
		EvAdoptHome:  true, // install-time authority adoption (authority migrates)
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
// the origin under WriteInvalidate, the last writer where authority migrates), the
// owner bitmask, and the exclusive writer (or -1).
type dirEntry struct {
	state  PageState
	home   int
	owners uint64 // bitmask of nodes holding a valid copy
	writer int    // exclusive owner, or -1
	// epoch counts home handoffs where authority migrates (zero elsewhere).
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
// of the (replacement) copy. Used by dead-home recovery where authority
// migrates: the previous home died, so the page's live anchor takes it. The caller
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
// grant at node (where authority migrates): the adopter becomes home and sole
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

// directory keeps every dirEntry of one process in radix trees indexed by
// VPN (§III-B). Placement is data: tables[n] is node n's table, and hosts
// lists the nodes that have one — the origin alone where authority never
// leaves it (WriteInvalidate), every node where it migrates; anchors lists,
// ascending, the nodes a lookup for a page starts at — the origin alone, or
// every node (DistributedManager). An entry lives in exactly one table, its
// home's, and each table is touched only on its host's lane.
type directory struct {
	tables  []*radix.Tree[dirEntry]
	hosts   []int
	anchors []int
}

// init gives each of hosts (ascending) an empty table of its own.
func (d *directory) init(nodes int, hosts, anchors []int) {
	d.tables, d.hosts, d.anchors = make([]*radix.Tree[dirEntry], nodes), hosts, anchors
	for _, h := range hosts {
		d.tables[h] = new(radix.Tree[dirEntry])
	}
}

// get returns vpn's entry as node sees it: the one in node's own table,
// present only while node is the page's home.
func (d *directory) get(node int, vpn uint64) (*dirEntry, bool) { return d.tables[node].Get(vpn) }

// put places de in node's table; remove takes vpn's entry out of it.
func (d *directory) put(node int, vpn uint64, de *dirEntry) { d.tables[node].Set(vpn, de) }
func (d *directory) remove(node int, vpn uint64)            { d.tables[node].Delete(vpn) }

// find returns vpn's entry wherever it lives. It reads every table in host
// order and must only run where lanes are quiescent.
func (d *directory) find(vpn uint64) (*dirEntry, bool) {
	for _, h := range d.hosts {
		if de, ok := d.tables[h].Get(vpn); ok {
			return de, true
		}
	}
	return nil, false
}

// walk visits every entry with lo <= vpn <= hi, and the node whose table it
// is in, in a deterministic order: host by host, ascending VPN within a
// table. A table's keys in range are snapshotted when the walk reaches it,
// so fn may move or remove the entry it is handed.
func (d *directory) walk(lo, hi uint64, fn func(host int, vpn uint64, de *dirEntry) bool) {
	var vpns []uint64
	for _, h := range d.hosts {
		vpns = vpns[:0]
		d.tables[h].ForRange(lo, hi, func(vpn uint64, _ *dirEntry) bool {
			vpns = append(vpns, vpn)
			return true
		})
		for _, vpn := range vpns {
			if de, ok := d.tables[h].Get(vpn); ok && !fn(h, vpn, de) {
				return
			}
		}
	}
}

// route is what a node believes about one page's home: the node to ask, and
// the home-handoff epoch the belief was learned at. home is -1 once the
// pointer has been cleared and only the epoch is kept — ask the anchor, but
// still refuse anything older.
type route struct {
	home  int
	epoch uint64
}

// routes is one node's route table, keyed by VPN; a page without a record is
// asked for at its anchor. Routes are repaired through redirect replies,
// never trusted for correctness. Where updates are gated by epoch
// (where authority migrates), an update older than the stored one is rejected
// unless the stored target is confirmed dead, which keeps the forwarding
// graph acyclic, and a node that hands authority off leaves its route behind
// as a forwarding pointer; chains are collapsed to a single hop by
// path-compression hints after each chained grant.
type routes map[uint64]route

// at returns vpn's route; home is -1 when there is no pointer.
func (rt routes) at(vpn uint64) route {
	if r, ok := rt[vpn]; ok {
		return r
	}
	return route{home: -1}
}

// point records that vpn's home is believed to be home as of epoch.
func (rt routes) point(vpn uint64, home int, epoch uint64) { rt[vpn] = route{home, epoch} }

// clear forgets vpn's pointer and keeps the larger of the stored epoch and
// epoch; a route with neither a pointer nor an epoch is no record at all.
func (rt routes) clear(vpn uint64, epoch uint64) {
	if epoch = max(epoch, rt[vpn].epoch); epoch == 0 {
		delete(rt, vpn)
		return
	}
	rt[vpn] = route{-1, epoch}
}

// dropRange forgets every route with lo <= vpn <= hi.
func (rt routes) dropRange(lo, hi uint64) {
	for vpn := range rt {
		if vpn >= lo && vpn <= hi {
			delete(rt, vpn)
		}
	}
}

// anchorSlot is the position in the anchor ring of vpn's anchor: a static
// splitmix64-style hash of the VPN over the ring.
func (m *Manager) anchorSlot(vpn uint64) int {
	z := vpn + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(m.dir.anchors)))
}

// anchor is where a lookup for vpn starts when the asking node holds no
// route: the node at the page's slot of the anchor ring, or the next one past
// nodes whose reclaim has committed — the origin when it is the only anchor.
// Authority itself may be anywhere.
func (m *Manager) anchor(vpn uint64) int { return m.ringHost(vpn, false) }

// liveAnchor is where requests for vpn fall back to once their believed home
// is confirmed dead, and where a dead home's entries are rebuilt: the ring
// walk of anchor, past confirmed-dead hosts as well.
func (m *Manager) liveAnchor(vpn uint64) int { return m.ringHost(vpn, true) }

// ringHost walks the anchor ring from vpn's slot to the first node that is
// not reclaimed and, if live, not confirmed dead. The origin cannot die, so
// the walk always ends.
func (m *Manager) ringHost(vpn uint64, live bool) int {
	ring, at := m.dir.anchors, m.anchorSlot(vpn)
	for i := range ring {
		if s := ring[(at+i)%len(ring)]; !m.nodes[s].reclaimed && !(live && m.dead(s)) {
			return s
		}
	}
	return m.origin
}

// place is a page's first touch: home owns the zero-filled page exclusively,
// and its frame is mapped immediately so that the directory invariant — the
// home's copy is up to date unless a remote holds the page exclusively —
// holds from the start. The entry goes into home's table.
func (m *Manager) place(home int, vpn uint64) *dirEntry {
	m.nodes[home].pt.SetAccess(vpn, m.frames.GetZeroed(), mem.AccessWrite)
	de := newDirEntry(home)
	de.firstTouch()
	m.dir.put(home, vpn, de)
	return de
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

// atQuiescence runs fn where it may touch every table: at once where the
// origin hosts the only one (it is the serving lane's own), as a global-lane
// event — scheduled through node's lane view, past the lookahead window —
// where each node's table belongs to its lane.
func (m *Manager) atQuiescence(node int, fn func()) {
	if !m.migrates {
		fn()
		return
	}
	v := m.view(node)
	v.AfterOn(sim.GlobalLane, max(20*time.Microsecond, v.Lookahead()), fn)
}

// quiesce is atQuiescence for a task that needs fn's result: t parks until
// fn has run.
func (m *Manager) quiesce(t *sim.Task, node int, reason string, fn func()) {
	if !m.migrates {
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

// presentFrame returns node's frame for vpn if the page is present there.
func (m *Manager) presentFrame(node int, vpn uint64) []byte {
	if pte := m.nodes[node].pt.Lookup(vpn); pte != nil && pte.Present {
		return pte.Frame
	}
	return nil
}

// rehome rebuilds the entry of a page whose home died at the page's live
// anchor: adopt the target's own replica if it has one, else a reference to
// a surviving reader's copy, else to the caller-supplied snapshot (a serve's
// retained grant data), and only as a last resort a zero-filled frame
// (counted in PagesLost). Every other surviving replica is dropped so the owner mask
// matches PTE presence afterwards — those nodes re-fault and the redirect
// machinery repairs their routes. The entry moves into the target's table, so
// it runs only where lanes are quiescent. The rebuild is a home handoff on
// the forwarding chain: the entry's epoch moves, so that routes learned
// before the crash can never override the repaired ones, and the anchor's
// forwarding pointer is repointed. Reports whether the page's contents were
// lost.
func (m *Manager) rehome(vpn uint64, de *dirEntry, dead int, fallback []byte) bool {
	target := m.liveAnchor(vpn)
	frame := m.presentFrame(target, vpn)
	survivors := de.owners &^ (1 << uint(dead))
	for s := survivors; frame == nil && s != 0; s &= s - 1 {
		if n := bits.TrailingZeros64(s); !m.dead(n) {
			frame = m.frames.Share(m.presentFrame(n, vpn))
		}
	}
	if frame == nil {
		frame = m.frames.Share(fallback)
	}
	for s := survivors &^ (1 << uint(target)); s != 0; s &= s - 1 {
		n := bits.TrailingZeros64(s)
		if f := m.presentFrame(n, vpn); f != nil {
			m.nodes[n].pt.Invalidate(vpn)
			m.freeFrame(f)
		}
	}
	de.rehome(target)
	lost := frame == nil
	if lost {
		frame = m.frames.GetZeroed()
		m.stats.PagesLost++
	}
	m.nodes[target].pt.SetAccess(vpn, frame, mem.AccessRead)
	m.stats.PagesRehomed++
	m.dir.remove(dead, vpn)
	m.dir.put(target, vpn, de)
	de.epoch++
	m.nodes[target].routes.clear(vpn, de.epoch)
	if anchor := m.anchor(vpn); anchor != target {
		m.nodes[anchor].routes.point(vpn, target, de.epoch)
	}
	m.stats.DirRebuilt++
	if m.rec != nil {
		lostArg := int64(0)
		if lost {
			lostArg = 1
		}
		m.mark(target, m.rehomeSpan, vpn, obs.Int("dead", int64(dead)), obs.Int("lost", lostArg))
	}
	return lost
}

// stranded returns vpn's entry, as the node that just served it sees it, if
// the entry sits idle at a home that died; nil otherwise (also when a
// completed write grant moved authority out of served's table).
func (m *Manager) stranded(served int, vpn uint64) *dirEntry {
	de, ok := m.dir.get(served, vpn)
	if !ok || de.busy() || !m.dead(de.home) {
		return nil
	}
	return de
}

// repairRoutes runs when dead's reclaim commits: every surviving route aimed
// at dead is repointed at the page's entry at a live node — where it was
// rebuilt, or where a handoff moved it before the death — at that entry's
// epoch, so post-crash traffic cannot override it backward. An entry still
// busy at dead is rebuilt when its serve settles; until then the route keeps
// only its epoch, and a node that anchors the page knows it exists. The dead
// node's own routes are reset and it is marked reclaimed: the pages anchored
// there are thereafter anchored at the next node on the ring.
func (m *Manager) repairRoutes(dead int) {
	for n, ns := range m.nodes {
		for vpn, r := range ns.routes {
			if r.home != dead {
				continue
			}
			ns.routes.clear(vpn, r.epoch)
			for _, h := range m.dir.hosts {
				if de, ok := m.dir.get(h, vpn); ok && !m.dead(h) {
					m.learnHome(n, vpn, h, de.epoch)
				}
			}
		}
	}
	clear(m.nodes[dead].routes)
	m.nodes[dead].reclaimed = true
}

// dropRange removes every entry with lo <= vpn <= hi unless one of them is
// busy, which it reports instead. Along with the entries go every node's
// routes in the range and the mappings of the nodes that host a table.
func (m *Manager) dropRange(lo, hi uint64) (busyVPN uint64, busy bool) {
	m.dir.walk(lo, hi, func(_ int, vpn uint64, de *dirEntry) bool {
		busyVPN, busy = vpn, de.busy()
		return !busy
	})
	if busy {
		return busyVPN, true
	}
	m.dir.walk(lo, hi, func(host int, vpn uint64, _ *dirEntry) bool {
		m.dir.remove(host, vpn)
		return true
	})
	for _, ns := range m.nodes {
		ns.routes.dropRange(lo, hi)
	}
	for _, h := range m.dir.hosts {
		m.ReclaimRange(h, lo, hi)
	}
	return 0, false
}

// checkRoutes verifies that a node holds a route pointer only for a page some
// table holds, and that from every node, following the route table (pointer
// if present, static anchor otherwise) reaches the host of the page's entry
// within one step per node — the epoch gate on route updates guarantees it;
// the check walks every route so a gating bug cannot hide. Chains through a
// confirmed-dead node are skipped: they are repaired when the death commits
// (ReclaimDeadNode).
func (m *Manager) checkRoutes() error {
	for n, ns := range m.nodes {
		for _, vpn := range slices.Sorted(maps.Keys(ns.routes)) {
			if _, held := m.dir.find(vpn); !held && ns.routes[vpn].home >= 0 {
				return fmt.Errorf("dsm: node %d routes vpn %#x, which no table holds", n, vpn)
			}
			for cur, step := n, 0; !m.dead(cur); step++ { // a dead node's chains are settled by its reclaim
				_, hosted := m.dir.get(cur, vpn)
				next := m.requestTarget(cur, vpn)
				if hosted || next == cur && m.nodes[cur].routes.at(vpn).home < 0 {
					// At the entry — or at an unrouted anchor without one: the
					// page was reclaimed or never materialized, and the walk
					// would first-touch here.
					break
				}
				if next == cur {
					return fmt.Errorf("dsm: vpn %#x route at node %d points at itself", vpn, cur)
				}
				if step == len(m.nodes) {
					return fmt.Errorf("dsm: vpn %#x forwarding chain from node %d does not terminate", vpn, n)
				}
				cur = next
			}
		}
	}
	return nil
}
