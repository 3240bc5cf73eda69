// protocol.go is the coherence-policy layer. There is one ownership
// protocol (§III-B: read-replicate / write-invalidate, MRSW, sequentially
// consistent) and this file holds the one implementation of each of its
// jobs: the lead-fault loop, the requester side, request dispatch, the
// serveRead / serveWrite directory transactions, and where a page is —
// resident, lookup and route, read off the directory's data (directory.go:
// the tables, the hosts, the routes) the same way for every placement. The
// engine (engine.go) owns reliable delivery.
//
// What a policy decides is how AUTHORITY MOVES — how a node learns a home
// and what a write grant hands to its new writer. That is four Manager
// methods at the end of this file (learnHome, grantInstalled, grantCompleted,
// compressChain), and they branch on the same traits as every other
// per-policy difference:
//
//   - WriteInvalidate (the paper's design, the default): the origin hosts the
//     one table and authority never leaves it. No node ever learns a route,
//     and a request delivered anywhere but the origin is a bug.
//   - HomeMigrate (migrates): the entry's home follows the last writer in
//     place in the origin's table; a stale belief is repaired by a redirect
//     that reads the shared table — which is why HomeMigrate runs with
//     serialized lanes.
//   - DistributedManager (migrates, forwards): every node hosts a table; the
//     entry moves to the new home's, the old home leaves an epoch-stamped
//     forwarding pointer, and chains are compressed after each chained grant.
//     Each host serves on its own simulation lane.
package dsm

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Protocol selects the coherence policy of a Manager.
type Protocol int

const (
	// WriteInvalidate is the paper's origin-served read-replicate /
	// write-invalidate protocol (§III-B). It is the default.
	WriteInvalidate Protocol = iota
	// HomeMigrate is the ownership-migration variant: the directory home of
	// a page follows its last writer, cutting origin round trips for
	// write-local access patterns. Stale home hints are repaired with
	// redirect replies. Under fault injection, pages whose home is declared
	// dead are reclaimed to the origin shard and requests fail over there.
	HomeMigrate
	// DistributedManager shards the ownership directory across every node:
	// a page's lookup anchor is a static hash of its VPN, directory
	// authority follows the last writer (as under HomeMigrate), and nodes
	// that hand authority off leave forwarding pointers behind. Lookup
	// chains are collapsed to at most one hop by path-compression hints
	// after each migrated grant. The origin is just another shard: a
	// crashed shard's directory slice is rebuilt from owner-side ground
	// truth at each page's live anchor. Unlike HomeMigrate, every shard
	// serves on its own simulation lane, so the policy runs parallel.
	DistributedManager
)

// homeBusyPoll is how often a fault at a page's own home re-checks a busy
// directory entry. The transaction holding the entry completes with a local
// event, so this is a short spin interval, not a congestion backoff.
const homeBusyPoll = 5 * time.Microsecond

// protocolInfo is one registry row: the canonical short name accepted on
// the command line, the long name (also accepted, and printed by String) and
// the data the shared paths read.
type protocolInfo struct {
	proto Protocol
	name  string // short CLI name
	long  string // canonical long name
	traits
}

// protocolRegistry is the single source of truth for the policies a
// Manager can run: ParseProtocol, the -protocol help text of every command,
// Protocol.String and initProtocol all derive from it.
var protocolRegistry = []protocolInfo{
	// origin-served, the default
	{WriteInvalidate, "wi", "write-invalidate", traits{}},
	// directory home follows the last writer
	{HomeMigrate, "home", "home-migrate",
		traits{migrates: true, redirectSpan: "hm.redirect", rehomeSpan: "hm.rehome"}},
	// hash-sharded directory with forwarding chains
	{DistributedManager, "dist", "distributed-manager",
		traits{migrates: true, forwards: true, redirectSpan: "dist.forward", rehomeSpan: "dist.rebuild"}},
}

// info returns p's registry row, nil for an unregistered p.
func (p Protocol) info() *protocolInfo {
	for i := range protocolRegistry {
		if protocolRegistry[i].proto == p {
			return &protocolRegistry[i]
		}
	}
	return nil
}

// SharesTable reports whether, under p, nodes read and write one directory
// table from their own lanes: authority migrates, so a page is served wherever
// its home is, and every home reads the origin's tree. The lanes of a
// simulation that runs p are then not independent (sim.SerializeLanes).
func (p Protocol) SharesTable() bool {
	pi := p.info()
	return pi != nil && pi.migrates && !pi.forwards
}

func (p Protocol) String() string {
	if pi := p.info(); pi != nil {
		return pi.long
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ProtocolHelp renders the -protocol flag help text from the registry, so
// every command's usage string stays in sync with the policies that exist.
func ProtocolHelp() string {
	var rows []string
	for _, pi := range protocolRegistry {
		rows = append(rows, pi.name+" ("+pi.long+")")
	}
	return "coherence protocol: " + strings.Join(rows, " | ")
}

// ParseProtocol resolves a protocol name as accepted by dexrun -protocol:
// either the short or the long name of any registered policy.
func ParseProtocol(s string) (Protocol, error) {
	var names []string
	for _, pi := range protocolRegistry {
		if s == pi.name || s == pi.long {
			return pi.proto, nil
		}
		names = append(names, pi.name)
	}
	return 0, fmt.Errorf("dsm: unknown protocol %q (want one of %s)", s, strings.Join(names, ", "))
}

// residence is what a node's directory lookup for one of its own faults
// found.
type residence uint8

const (
	// dirHere: the entry is authoritative at the asking node; the fault
	// resolves through the local directory.
	dirHere residence = iota
	// dirFirstTouch: the lookup materialized the page at the asking node (a
	// demand-zero fault at the page's home is not a protocol fault).
	dirFirstTouch
	// dirElsewhere: authority is at another node; ask the believed home.
	dirElsewhere
)

// routing is route's decision on a page request admitted at a node: serve it
// there (home is that node) or bounce the requester to home at epoch.
type routing struct {
	home  int
	epoch uint64
	// busy: the page's home is dead and its last transaction has not unwound
	// yet: NACK, the requester retries after recovery.
	busy bool
}

// traits is the per-policy data the shared paths read.
type traits struct {
	// migrates: directory authority follows the last writer (HomeMigrate,
	// DistributedManager). It decides three things. A fault waiting out a
	// busy entry at its own home polls (the transaction ends with a local
	// event) and counts one NACK, where the non-migrating origin counts one
	// per attempt and pays the remote requester's backoff. A write serve's
	// revocations carry the prospective new home. And a writer away from its
	// home cannot exist, so the fetch-from-writer pull is a protocol bug.
	migrates bool
	// forwards: every node hosts a table, and a node that hands authority
	// off stays on the page's forwarding chain. A redirect is a hop along it
	// and counts in Stats.Forwards; a dead home's rebuild is a handoff on it
	// (rehome); a route update is epoch-gated.
	forwards bool
	// redirectSpan names the instant span a redirecting node records,
	// rehomeSpan the one left where a dead home's entry is rebuilt.
	redirectSpan, rehomeSpan string
}

// initProtocol sets m's traits from its protocol's registry row and places
// the directory: the origin hosts the one table, or, where authority
// forwards, every node hosts its own.
func (m *Manager) initProtocol() {
	pi := m.params.Protocol.info()
	if pi == nil {
		panic(fmt.Sprintf("dsm: unknown protocol %d", m.params.Protocol))
	}
	m.traits = pi.traits
	hosts := []int{m.origin}
	if m.forwards {
		hosts = make([]int, len(m.nodes))
		for n := range hosts {
			hosts[n] = n
		}
	}
	m.dir.init(len(m.nodes), hosts, m.forwards)
}

// ---------------------------------------------------------------------------
// The fault path: one lead-fault loop, one requester side.

// leadFault runs the full protocol for one lead fault at ctx.Node. It
// reports the number of retries and whether the consistency protocol was
// actually involved.
func (m *Manager) leadFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) (retries int, protocol bool) {
	node := ctx.Node
	for attempt := 1; ; attempt++ {
		// Authority is re-resolved after every wait: the busy transaction we
		// waited out may have moved it away.
		de, where := m.lookup(node, vpn)
		switch where {
		case dirFirstTouch:
			return attempt - 1, false
		case dirElsewhere:
			return m.requestFault(t, ctx, vpn, write) + attempt - 1, true
		}
		if de.busy() {
			if m.migrates {
				if attempt == 1 {
					m.stats.Nacks++
				}
				t.Sleep(homeBusyPoll)
			} else {
				m.stats.Nacks++
				m.backoff(t, node, attempt)
			}
			continue
		}
		if m.Lookup(node, vpn, write) != nil {
			// Raced with a transaction that restored our access.
			return attempt - 1, true
		}
		de.begin()
		t.Sleep(directoryCost)
		m.serveLocked(t, de, node, vpn, write)
		de.end()
		t.Sleep(pteInstall)
		return attempt - 1, true
	}
}

// requestTarget returns the node a page request from node should be sent
// to: the believed home of vpn, or its anchor when node holds no route. The
// origin of a shared table, the anchor itself, reads the home off the entry.
func (m *Manager) requestTarget(node int, vpn uint64) int {
	if r := m.nodes[node].routes.at(vpn); r.home >= 0 {
		return r.home
	}
	if node == m.origin && !m.forwards {
		if de, ok := m.dir.get(node, vpn); ok {
			return de.home
		}
	}
	return m.anchor(vpn)
}

// failover re-routes node's requests for vpn through the page's live anchor
// after its believed home, dead, was confirmed or suspected dead, leaving an
// instant marker on the faulting node's lane. It returns the new target.
func (m *Manager) failover(node int, vpn uint64, dead int, mode string) int {
	fb := m.liveAnchor(vpn)
	m.learnHome(node, vpn, fb, 0)
	m.stats.HomeFailovers++
	if m.rec != nil {
		m.mark(node, "hm.failover", vpn, obs.Int("dead", int64(dead)), obs.String("mode", mode))
	}
	return fb
}

// requestFault implements the requester side at a node away from the page's
// home: prepare a landing zone, send the request to the believed home,
// await the (retransmitted, deduplicated) reply, and install the grant. A
// redirect reply refreshes the home hint and retries immediately.
func (m *Manager) requestFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) int {
	node := ctx.Node
	// hops records every node that redirected this fault along a forwarding
	// chain; after the grant lands, compressChain may collapse the chain so
	// later lookups resolve in at most one hop. forced carries a redirect
	// the epoch gate rejected for storage: the walk still follows it once,
	// transiently, so it makes progress past routes a liveness override has
	// pushed backward.
	var hops []int
	forced := -1
	for attempt := 1; ; attempt++ {
		reqAt := t.Now()
		target := m.requestTarget(node, vpn)
		if forced >= 0 {
			target, forced = forced, -1
		}
		if target != node && m.dead(target) {
			// The believed home is confirmed dead: skip the doomed round
			// trip and route through the page's live anchor, which reclaims
			// (or redirects around) dead-home pages.
			target = m.failover(node, vpn, target, "dead-target")
		}
		if target == node {
			// The believed home is this very node: either our own write
			// grant is still in its install window (the directory home flips
			// when our install ack lands at the old home), or a stale
			// self-hint survived an unmap. The directory, not the hint, is
			// authoritative — drop the hint and return; EnsurePage
			// re-validates the PTE and re-runs the lead fault against the
			// directory's current home.
			m.learnHome(node, vpn, m.liveAnchor(vpn), 0)
			return attempt - 1
		}
		req := m.e.post(t, node, target, vpn, write)
		m.e.wait(t, node, req)
		rep := &req.reply
		if m.rec != nil {
			m.rec.Span("dsm", "fault.request", node, ctx.Task, reqAt,
				obs.Hex("vpn", vpn),
				obs.Int("attempt", int64(attempt)),
				obs.String("outcome", rep.outcome.String()))
		}
		if !rep.outcome.granted() {
			m.e.forget(node, req)
			req.pr.Release()
		}
		switch rep.outcome {
		case deadHome:
			// The believed home died with our request (or its reply) in
			// flight: forget the hint and retry through the page's live
			// anchor after a backoff, giving the failover path time to reclaim
			// the page. (The epoch gate admits this route unconditionally —
			// the stored target is confirmed dead.)
			m.failover(node, vpn, target, "dead-home")
			m.backoff(t, node, attempt)
			continue
		case redirect:
			// Stale home hint: learn the authoritative home and retry there
			// immediately (no backoff — this is routing, not contention).
			if de, ok := m.dir.get(node, vpn); ok && rep.home == node && de.home == node {
				// It names this node, which has become the home meanwhile (its
				// own write grant installed): EnsurePage re-runs the fault
				// against its own table.
				return attempt - 1
			}
			if m.dead(rep.home) {
				// The redirect points at a node that has since died: fall
				// back to the page's live anchor and back off, giving the
				// lease layer time to declare and rebuild.
				m.failover(node, vpn, rep.home, "dead-redirect")
				m.backoff(t, node, attempt)
				continue
			}
			hops = append(hops, target)
			if !m.learnHome(node, vpn, rep.home, rep.epoch) && rep.home != node {
				// The gate rejected the redirect for storage; still follow
				// it once so the walk makes progress past routes a liveness
				// override pushed backward. A rejected redirect naming THIS
				// node is a stale echo of our own past tenure — our stored
				// route is fresher, so just retry through it.
				forced = rep.home
			}
			continue
		case nack:
			m.stats.Nacks++
			m.backoff(t, node, attempt)
			continue
		case stale:
			// A concurrent transaction already satisfied this access; the
			// caller re-validates the PTE.
			return attempt - 1
		}
		m.install(t, ctx, req, hops)
		return attempt - 1
	}
}

// install lands the grant o holds at ctx.Node: it claims the page data from
// the landing zone (or, for an ownership-only grant, releases it and keeps the
// node's fresh copy), maps the page, acks the serving home, learns where the
// page's home now is, compresses the forwarding chain the request walked
// (hops) and applies the revocations deferred behind the install. A write
// grant maps a frame no other holder references, copied if one still does.
func (m *Manager) install(t *sim.Task, ctx Ctx, o *outstanding, hops []int) {
	node, vpn, write, pr, rep := ctx.Node, o.req.vpn, o.req.write, &o.pr, &o.reply
	var frame, kept []byte // the reference mapped; the node's copy, kept
	if rep.outcome == grantData {
		claimAt := t.Now()
		frame = pr.Claim(t)
		if m.rec != nil {
			m.rec.Span("dsm", "fault.transfer", node, ctx.Task, claimAt,
				obs.Hex("vpn", vpn))
		}
	} else {
		// Ownership-only grant: our existing copy is up to date.
		pr.Release()
		pte := m.nodes[node].pt.Lookup(vpn)
		if pte == nil || pte.Frame == nil {
			panic(fmt.Sprintf("dsm: ownership-only grant for vpn %#x but node %d has no copy", vpn, node))
		}
		frame, kept = pte.Frame, pte.Frame
	}
	installAt := t.Now()
	t.Sleep(pteInstall)
	if write {
		frame = m.frames.Private(frame)
	}
	// A grant that carries data over an existing local copy (the
	// AlwaysSendData ablation's read-to-write upgrade) orphans the old
	// frame's reference: release it.
	if prev := m.nodes[node].pt.SetAccess(vpn, frame, mem.GrantAccess(write)); prev != nil && (kept == nil || &prev[0] != &kept[0]) {
		m.freeFrame(prev)
	}
	if m.rec != nil {
		m.rec.Span("dsm", "fault.install", node, ctx.Task, installAt,
			obs.Hex("vpn", vpn))
	}
	// A successful grant pins down where the page's home is right now:
	// the serving node for reads, ourselves for writes (the home flips
	// to the new exclusive owner as our install ack lands), at the epoch
	// the grant reply carried.
	final := o.home
	if write {
		final = node
		// Authority adoption must happen before the install ack is sent:
		// the old home hands off only after the new home's entry is live.
		m.grantInstalled(node, vpn, rep.epoch)
	}
	m.e.installed(node, o)
	m.net.Send(t, node, o.home, &o.installAck)
	m.learnHome(node, vpn, final, rep.epoch)
	if len(hops) > 0 {
		m.compressChain(t, node, vpn, hops, final, rep.epoch)
	}
	// Apply revocations deferred during the install window.
	for _, r := range o.deferred {
		m.applyRevokeAdmitted(r)
	}
}

// ---------------------------------------------------------------------------
// The serve path: one dispatch skeleton, one directory transaction pair.

// dispatchRequest handles a page request delivered at node: admit it (the
// transport engine deduplicates by token first), route it, and
// then either serve it here or bounce the requester.
func (m *Manager) dispatchRequest(node int, req *pageRequest) {
	st := m.e.admitServe(node, req)
	if st == nil {
		return
	}
	switch r := m.route(node, req); {
	case r.busy:
		m.e.bounce(st, nack, 0, 0)
		m.view(node).Start(&st.run, "dsm-nack", st)
	case r.home == node:
		m.view(node).Start(&st.run, "dsm-serve", st)
	default:
		m.redirect(st, r.home, r.epoch)
		if m.rec != nil {
			// Recorded on the bouncing node's lane (where the stale-routed
			// request was delivered).
			m.mark(node, m.redirectSpan, req.vpn, obs.Int("from", int64(req.node)), obs.Int("home", int64(r.home)))
		}
		m.view(node).Start(&st.run, "dsm-redirect", st)
	}
}

// serveLocked performs one directory transaction for reqNode with the entry
// in transfer state, keyed on de.home — wherever that is. On return the
// directory reflects the grant; for a requester local to the serving home
// the page table is updated in place. For a remote requester it returns the
// page data the grant carries, a frame reference the caller holds, nil for
// an ownership-only grant.
func (m *Manager) serveLocked(t *sim.Task, de *dirEntry, reqNode int, vpn uint64, write bool) []byte {
	if de.writer == reqNode {
		panic(fmt.Sprintf("dsm: node %d faulted on vpn %#x it owns exclusively", reqNode, vpn))
	}
	if m.migrates && de.writer >= 0 && de.writer != de.home {
		// The home migrates with exclusivity.
		panic(fmt.Sprintf("dsm: migrating-home entry for vpn %#x has writer %d away from home %d", vpn, de.writer, de.home))
	}
	if write {
		return m.serveWrite(t, de, reqNode, vpn)
	}
	return m.serveRead(t, de, reqNode, vpn)
}

func (m *Manager) serveRead(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) []byte {
	home := de.home
	switch {
	case de.writer == home:
		// The home holds the page exclusively: downgrade in place.
		m.nodes[home].pt.SetAccess(vpn, nil, mem.AccessRead)
		de.downgradeWriter()
	case de.writer >= 0:
		// A remote holds the page exclusively: downgrade it and pull the
		// fresh data back home.
		m.fetchFromWriter(t, de, vpn, true /* downgrade */)
	}
	de.grantShared(reqNode)
	if reqNode == home {
		m.nodes[home].pt.SetAccess(vpn, m.frameAt(home, vpn), mem.AccessRead)
		return nil
	}
	return m.frames.Share(m.frameAt(home, vpn))
}

func (m *Manager) serveWrite(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) []byte {
	home := de.home
	needData := !de.has(reqNode) || m.params.AlwaysSendData
	if needData && de.writer >= 0 && de.writer != home {
		// The fresh copy lives at a remote exclusive owner: pull it home
		// before revoking everything.
		m.fetchFromWriter(t, de, vpn, false /* invalidate */)
	}
	// Take a reference to the outbound data before the home's own copy is
	// revoked.
	var data []byte
	if needData && reqNode != home {
		data = m.frames.Share(m.frameAt(home, vpn))
	}
	// Revoke every copy except the requester's. Where authority migrates,
	// each revocation carries the prospective new home (stamped with the
	// handoff epoch it takes effect at) so replica holders keep their routes
	// fresh. A write at the home hands nothing off: its epoch stays.
	newHome, newEpoch := -1, uint64(0)
	if m.migrates {
		newHome, newEpoch = reqNode, de.epoch
		if reqNode != home {
			newEpoch++
		}
	}
	var waiting [8]*revokeWaiter
	acks := waiting[:0]
	for others := de.owners &^ (1 << uint(reqNode)); others != 0; others &= others - 1 {
		owner := bits.TrailingZeros64(others)
		if owner == home {
			m.freeFrame(m.nodes[home].pt.SetAccess(vpn, nil, mem.AccessNone))
			t.Sleep(invalidateApply)
			m.stats.Invalidations++
			m.emitInvalidate(home, vpn)
			continue
		}
		if m.dead(owner) {
			// A crashed reader's copy died with it; nothing to revoke.
			m.bury(vpn, de, owner, nil)
			continue
		}
		acks = append(acks, m.e.sendRevoke(t, new(revokeWaiter), home, owner, vpn, false, newHome, newEpoch, nil))
	}
	m.e.waitRevokes(t, acks)
	if !needData {
		m.stats.OwnershipGrants++
	}
	de.grantExclusive(reqNode)
	if reqNode == home {
		m.nodes[home].pt.SetAccess(vpn, m.frames.Private(m.frameAt(home, vpn)), mem.AccessWrite)
	}
	return data // nil unless needData and the requester is remote
}

// fetchFromWriter revokes the remote exclusive owner of vpn and installs the
// returned data as the home's copy. With downgrade the owner keeps a shared
// (read-only) copy; otherwise its mapping is dropped. A writer away from its
// home exists only where authority does not migrate.
func (m *Manager) fetchFromWriter(t *sim.Task, de *dirEntry, vpn uint64, downgrade bool) {
	w, home := de.writer, de.home
	if m.dead(w) {
		m.bury(vpn, de, w, nil)
		return
	}
	pullAt := t.Now()
	p := new(pull)
	pr := &p.pr
	m.net.Prepare(t, pr, w, home, &m.frames)
	m.e.sendRevoke(t, &p.revokeWaiter, home, w, vpn, downgrade, -1, 0, pr)
	m.e.waitRevokes(t, []*revokeWaiter{&p.revokeWaiter})
	if p.lost {
		// The writer died before shipping its copy home.
		pr.Release()
		m.bury(vpn, de, w, nil)
		return
	}
	data := pr.Claim(t)
	m.nodes[home].pt.SetAccess(vpn, data, mem.AccessRead)
	m.stats.PageTransfers++
	de.pullHome(downgrade)
	if m.rec != nil {
		mode := "invalidate"
		if downgrade {
			mode = "downgrade"
		}
		m.rec.Span("dsm", "hm.pull", home, -1, pullAt,
			obs.Hex("vpn", vpn),
			obs.Int("writer", int64(w)),
			obs.String("mode", mode))
	}
}

// ---------------------------------------------------------------------------
// Where a page is, for every placement: read off the table node reads, node's
// routes and the page's anchor (the origin when it hosts the only table).

// resident returns vpn's entry as node's table holds it. A lookup at the
// page's anchor that finds no entry and no route is the page's global first
// touch: materialize it there.
func (m *Manager) resident(node int, vpn uint64) (de *dirEntry, created bool) {
	if de, ok := m.dir.get(node, vpn); ok {
		return de, false
	}
	if m.nodes[node].routes.at(vpn).home < 0 && m.anchor(vpn) == node {
		return m.place(node, vpn), true
	}
	return nil, false
}

// lookup resolves vpn's directory entry for a lead fault at node.
func (m *Manager) lookup(node int, vpn uint64) (*dirEntry, residence) {
	if !m.migrates && node != m.origin {
		// Authority never leaves the origin, and only the origin's lane may
		// read its table.
		return nil, dirElsewhere
	}
	de, created := m.resident(node, vpn)
	switch {
	case created:
		return de, dirFirstTouch
	case de == nil:
		return nil, dirElsewhere
	case de.home != node:
		// Only a shared table holds an entry homed elsewhere. At the origin, a
		// dead home's idle entry is reclaimed to the origin shard.
		if node != m.origin || !m.dead(de.home) || de.busy() {
			return nil, dirElsewhere
		}
		m.bury(vpn, de, de.home, nil)
	}
	return de, dirHere
}

// route decides what happens to a page request admitted at node: serve it if
// node is the page's home (or its first touch, at its anchor), else redirect
// the requester to the home a shared table names, one hop down node's route,
// or back to the anchor. At the origin, a shared table's entry homed at a dead
// node is reclaimed to the origin shard and served right here.
func (m *Manager) route(node int, req *pageRequest) routing {
	if !m.migrates {
		if node != m.origin {
			panic(fmt.Sprintf("dsm: page request for pid %d delivered to node %d (origin %d)", m.pid, node, m.origin))
		}
		return routing{home: node}
	}
	de, hosted := m.dir.get(node, req.vpn)
	r := m.nodes[node].routes.at(req.vpn)
	anchor := m.anchor(req.vpn)
	switch {
	case hosted && de.home != node:
		if node != m.origin || !m.dead(de.home) {
			return routing{home: de.home}
		}
		if de.busy() {
			return routing{busy: true}
		}
		m.bury(req.vpn, de, de.home, nil)
		return routing{home: node}
	case hosted || (r.home < 0 && anchor == node):
		if m.forwards && m.rec != nil {
			// The lookup resolved at this shard; the serve span that follows
			// covers the transaction itself.
			m.mark(node, "dist.lookup", req.vpn, obs.Int("from", int64(req.node)))
		}
		return routing{home: node}
	case r.home >= 0:
		return routing{home: r.home, epoch: r.epoch}
	}
	// An anchor restart, not a home claim: carry no freshness.
	return routing{home: anchor}
}

// ---------------------------------------------------------------------------
// How authority moves: what a node learns about a page's home, and what a
// write grant hands to its new writer. Where authority does not migrate
// (WriteInvalidate) nothing moves and no node learns a route. Where it
// migrates within the origin's one table (HomeMigrate) the entry's home
// follows the last writer in place and a route is a hint a redirect repairs.
// Where it forwards (DistributedManager) the entry moves to the new home's
// table, the old home keeps an epoch-stamped forwarding pointer, and chains
// are compressed after each chained grant.

// learnHome records at node a belief about vpn's home, stamped with the
// home-handoff epoch it was learned at, and reports whether it was applied.
// Every source of routing information lands here: grant replies, redirects,
// revocation-carried hints, path-compression hints. Without forwarding the
// belief is stored unconditionally at epoch 0, the origin (the default
// belief) as no route. With forwarding this is the epoch gate: an update
// older than the route the node already holds is rejected, so the forwarding
// graph stays acyclic no matter how messages reorder; the exception is
// liveness, which beats freshness — a route whose target is confirmed dead
// (or nonsensically names the node itself) yields to any replacement.
func (m *Manager) learnHome(node int, vpn uint64, home int, epoch uint64) bool {
	rt := m.nodes[node].routes
	switch {
	case !m.migrates:
		return false
	case !m.forwards:
		if home == m.origin {
			rt.clear(vpn, 0)
		} else {
			rt.point(vpn, home, 0)
		}
		return true
	case epoch < rt[vpn].epoch:
		if tgt := m.requestTarget(node, vpn); tgt != node && !m.dead(tgt) {
			return false
		}
	}
	if home == node {
		// A claim that this very node is home. Legitimate for our own write
		// grant (the entry adopted in grantInstalled is authoritative, no
		// route needed) — but a STALE redirect can also name us, echoing a
		// tenure we already handed off. Deleting our fresher breadcrumb on
		// such an echo would orphan the chain behind us (and let the anchor
		// re-materialize a second lineage), which is why the gate above
		// applies to this case too.
		rt.clear(vpn, epoch)
		return true
	}
	rt.point(vpn, home, epoch)
	return true
}

// grantInstalled runs at the requester right after a write grant's PTE is
// installed and before the install ack is sent. Where authority forwards it
// is the adoption point: the requester becomes the page's home, so it
// materializes a fresh authoritative entry, at the epoch the grant reply
// carried, in its own table before the ack releases the old home, whose
// entry grantCompleted retires when that ack arrives.
func (m *Manager) grantInstalled(node int, vpn uint64, epoch uint64) {
	if !m.forwards {
		return
	}
	de := newDirEntry(node)
	de.adoptHome(node)
	de.epoch = epoch
	m.dir.put(node, vpn, de)
	m.nodes[node].routes.clear(vpn, epoch)
}

// grantCompleted runs at the serving home once the requester's install ack
// closes a remote write grant: where authority migrates, the new exclusive
// owner becomes the page's home. Without forwarding the shared table's entry
// flips in place and the old home learns the new one (it just granted to
// it), so its own next fault routes directly. With forwarding the entry
// leaves the old home's table and a forwarding pointer to the new home,
// stamped with the handoff epoch, takes its place. It runs on the old home's
// lane (the serve task), so the table change is lane-local.
func (m *Manager) grantCompleted(de *dirEntry, req *pageRequest) {
	old := de.home
	if !m.migrates || !req.write || old == req.node {
		return
	}
	de.home = req.node
	if !m.forwards {
		m.learnHome(old, req.vpn, req.node, 0)
		return
	}
	m.dir.remove(old, req.vpn)
	de.epoch++
	m.nodes[old].routes.point(req.vpn, req.node, de.epoch)
}

// compressChain collapses the forwarding chain a request walked, where
// authority forwards: hops lists the nodes that redirected it, home is where
// the grant was finally served (or the requester itself for a write), epoch
// the handoff epoch at which home holds the page. Each hop is sent a
// fire-and-forget home hint, so its pointer jumps straight to the page's
// current home. (Under HomeMigrate a redirect is a hop too, but there is no
// chain to collapse.)
func (m *Manager) compressChain(t *sim.Task, node int, vpn uint64, hops []int, home int, epoch uint64) {
	if !m.forwards {
		return
	}
	var sent uint64
	for _, hop := range hops {
		if hop == home || hop == node {
			continue
		}
		if bit := uint64(1) << uint(hop); sent&bit != 0 {
			continue
		} else {
			sent |= bit
		}
		if m.dead(hop) {
			continue
		}
		m.net.Send(t, node, hop, &homeHintMsg{pid: m.pid, vpn: vpn, home: home, epoch: epoch})
	}
}
