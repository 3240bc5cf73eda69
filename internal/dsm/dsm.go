// Package dsm implements DeX's page-level memory consistency protocol
// (§III-B of the paper) and its concurrent fault handling (§III-C).
//
// The protocol is a multiple-reader / single-writer, read-replicate /
// write-invalidate design providing sequential consistency. A home node
// (the origin, under the default policy) tracks page ownership on a
// per-page, per-node basis in a radix tree indexed by virtual page number.
// A node may keep accessing a page without contacting the home as long as
// it holds proper ownership; read requests earn a shared copy, write
// requests earn exclusive ownership after the home revokes every other
// copy. When the requester already holds an up-to-date copy, the home
// grants ownership without resending the page data.
//
// The implementation is split into three layers:
//
//   - directory.go — the per-page ownership state machine (dirEntry): the
//     enumerated states, the (state × event) legality table, and every
//     legal transition, invariant-checked; the radix tables the entries are
//     kept in (the origin's alone, or one per node), the anchor ring and the
//     route record.
//   - protocol.go — the one fault / request / dispatch / serve path, the one
//     answer to where a page is, and the four steps that move authority,
//     each branching on whether it migrates: WriteInvalidate (the paper's
//     origin-served design and the default) keeps it at the origin;
//     HomeMigrate and DistributedManager (the home follows the last writer)
//     differ only in the anchor ring, the origin or every node.
//   - engine.go — the transport engine: the transaction records of both
//     sides, the one wait loop (retransmission, backoff, give-up), and
//     duplicate detection whose state goes as the floors senders carry pass
//     it.
//
// Concurrent faults on one node are tamed with the paper's leader-follower
// model: the first thread to fault on a (page, access-type) pair becomes the
// leader and runs the protocol; followers park and simply resume with the
// updated PTE. Cross-node races are resolved by the home serializing
// transactions per page and NACKing conflicting requests, which retry after
// a backoff — reproducing the bimodal fault-latency distribution of §V-D.
package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Kind classifies a consistency-protocol event for profiling.
type Kind int

// Fault kinds, matching the paper's trace tuple (read/write/invalidate).
const (
	KindRead Kind = iota + 1
	KindWrite
	KindInvalidate
)

var kindNames = [...]string{KindRead: "read", KindWrite: "write", KindInvalidate: "invalidate"}

func (k Kind) String() string {
	if k >= KindRead && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// The software-cost model, calibrated so that an uncontended remote fault
// lands near the paper's 19.3 µs and a contended, retried fault near
// 158.8 µs (§V-D).
const (
	// faultEntry is the cost of trapping into the fault handler and
	// consulting the ongoing-fault table.
	faultEntry time.Duration = 2000 * time.Nanosecond
	// originDispatch is the cost of dispatching an incoming page request to
	// a handler context at the serving node.
	originDispatch time.Duration = 2200 * time.Nanosecond
	// directoryCost is the cost of one ownership-directory transaction.
	directoryCost time.Duration = 1500 * time.Nanosecond
	// pteInstall is the cost of the serialized PTE update.
	pteInstall time.Duration = 1200 * time.Nanosecond
	// invalidateApply is the cost of applying one revocation to a PTE.
	invalidateApply time.Duration = 600 * time.Nanosecond
	// nackBackoffBase/Jitter control the retry delay after a conflicting
	// (NACKed) request; the delay grows linearly with the attempt count.
	nackBackoffBase   time.Duration = 75 * time.Microsecond
	nackBackoffJitter time.Duration = 70 * time.Microsecond
)

// Params holds the protocol switches and the costs tests vary.
type Params struct {
	// FollowerWake is the cost a coalesced follower pays to resume.
	FollowerWake time.Duration
	// RetryTimeout/RetryTimeoutMax bound the retransmission timer used when
	// fault injection is active: a request, grant, or revocation that is not
	// acknowledged within the timeout is re-sent, and the timeout doubles up
	// to the cap. All protocol messages are idempotent (duplicates are
	// detected by token or sequence number), so re-sending is always safe.
	RetryTimeout    time.Duration
	RetryTimeoutMax time.Duration

	// Protocol selects the coherence policy (protocol.go). The zero value is
	// WriteInvalidate, the paper's origin-served design.
	Protocol Protocol

	// DisableCoalescing turns off the leader-follower model (ablation A1):
	// every faulting thread runs the full protocol itself.
	DisableCoalescing bool
	// AlwaysSendData disables ownership-only grants (ablation A4): page
	// data is resent even when the requester's copy is fresh.
	AlwaysSendData bool
}

// DefaultParams returns the calibrated follower wake and retransmission
// timer under the paper's write-invalidate protocol.
func DefaultParams() Params {
	return Params{
		FollowerWake:    500 * time.Nanosecond,
		RetryTimeout:    300 * time.Microsecond,
		RetryTimeoutMax: 5 * time.Millisecond,
	}
}

// FaultEvent is the profiler-visible record of one consistency event,
// mirroring the paper's trace tuple (§IV-A).
type FaultEvent struct {
	Time    time.Duration // completion time: emitFault stamps it itself, FaultFromSpan reads it back
	Node    int
	Task    int
	Kind    Kind
	Site    string
	Addr    mem.Addr
	Latency time.Duration
	Retries int
}

// Ctx identifies the faulting context for accounting and profiling.
type Ctx struct {
	Node int
	Task int
	Site string
}

// Stats aggregates protocol activity.
type Stats struct {
	ReadFaults      uint64
	WriteFaults     uint64
	FollowerJoins   uint64
	Nacks           uint64
	Invalidations   uint64
	Downgrades      uint64
	PageTransfers   uint64 // pages pulled back to the home from writers
	OwnershipGrants uint64 // write grants that skipped the data transfer
	PrefetchedPages uint64 // pages granted through prefetch hints
	Retransmits     uint64 // protocol messages re-sent after a retry timeout
	DupsIgnored     uint64 // duplicate protocol messages detected and dropped
	PagesLost       uint64 // pages whose only fresh copy died with a node
	HomeFailovers   uint64 // requests re-targeted at the live anchor after their home died (home, dist)
	PagesRehomed    uint64 // pages rebuilt at their live anchor after their home died (home, dist)
	DirServes       uint64 // page-request transactions dispatched to a serving home
	OriginServes    uint64 // the subset of DirServes handled at the origin node
	Forwards        uint64 // requests bounced along a forwarding chain (home, dist)
	ChainHints      uint64 // path-compression hints applied to forwarding pointers
	DirRebuilt      uint64 // directory entries rebuilt after their home crashed (home, dist)
	TotalLatency    time.Duration
}

// Faults returns the total number of lead faults handled by the protocol.
func (s Stats) Faults() uint64 { return s.ReadFaults + s.WriteFaults }

type fkey struct {
	vpn   uint64
	write bool
}

// faultGroup tracks one in-progress lead fault and its coalesced followers.
// A node reuses its groups, followers' capacity included (nodeState.groups),
// so seq names the use: a follower that joined one use must join the next,
// although the pointer is the same.
type faultGroup struct {
	followers []*sim.Task
	seq       uint64
}

type nodeState struct {
	pt     mem.PageTable
	faults map[fkey]*faultGroup
	// groups holds the fault groups whose leaders are done, for the next
	// leader on this node to take.
	groups []*faultGroup

	// reqCtr is this node's request-token allocator. Tokens carry the
	// allocating node in their top bits (nextSeq), giving every
	// node a private, monotonic token space it can allocate from on its own
	// simulation lane without synchronization. revCtr is the same for the
	// revocation sequence numbers this node issues as a serving home.
	reqCtr uint64
	revCtr uint64

	// reqs holds this node's open requests (granted ones not yet installed
	// among them: what a revocation may have to wait behind) and revokes the
	// open waits of the revocations it has issued as a serving home, each a
	// window of its own numbers whose base is the floor it sends; peers holds
	// what it keeps of every other node's numbers (engine.go). All of it is
	// this node's alone, so directory shards serve independently on their lanes.
	reqs    window[*outstanding]
	revokes window[*revokeWaiter]
	peers   []peer

	// routes is where this node believes each page's home is (directory.go);
	// it stays empty where authority never migrates.
	routes routes
	// reclaimed marks that this node died and ReclaimDeadNode has committed:
	// its directory slice has been rebuilt elsewhere and its tables reset.
	// Pages anchored here are thereafter anchored at the next host on the
	// ring (anchor). Written only on the quiescent global lane.
	reclaimed bool
}

// Manager runs the consistency protocol for one process across all nodes.
type Manager struct {
	eng    *sim.Engine
	net    *fabric.Network
	params Params
	pid    int
	origin int
	nodes  []*nodeState
	dir    directory
	stats  Stats

	// traits is the protocol's data: what the shared paths, and the four
	// steps that move authority (protocol.go), branch on.
	traits
	// e is the transport engine (engine.go): tokens, retransmission,
	// duplicate detection.
	e engine

	// frames holds the page frames of every node of the process, counted by
	// reference: a read grant, a page in flight, a re-send snapshot and a
	// rebuild's fallback each take a reference to the frame they would have
	// copied, and the last release puts it back, wherever that happens, so
	// readers share one frame and the steady-state transfer path allocates
	// nothing. A frame is copied only where write access is granted and only
	// while another holder still references it (mem.FramePool.Private), so a
	// writable frame has one holder. One pool serves all nodes because a
	// frame is taken where a page is written and released where it is
	// invalidated: per-node lists filled at the readers and stayed empty at
	// the home. A simulation runs on one goroutine, in an order its schedule
	// fixes, so one pool needs no lock and its counters repeat.
	frames mem.FramePool

	// chaos is the fault injector attached to the fabric, or nil. When set,
	// every wait on a protocol acknowledgment runs under a retransmission
	// timeout and the engine's dedup/recovery state is maintained.
	chaos *chaos.Injector

	// rec is the observability recorder; nil (the default) disables every
	// span, fault-level (obs.go) and interior, with a single branch.
	rec *obs.Recorder
	// inflight counts lead faults currently inside the protocol; the
	// sampler exposes it as a gauge.
	inflight int
}

// MaxNodes is the largest cluster a Manager runs on: a directory entry keeps
// its owners in one 64-bit mask.
const MaxNodes = 64

// New creates a protocol manager for process pid whose origin is the given
// node. rec may be nil.
func New(eng *sim.Engine, net *fabric.Network, params Params, pid, origin, nodes int, rec *obs.Recorder) *Manager {
	if nodes > MaxNodes {
		panic(fmt.Sprintf("dsm: at most %d nodes (ownership bitmask)", MaxNodes))
	}
	if origin < 0 || origin >= nodes {
		panic(fmt.Sprintf("dsm: origin %d out of range", origin))
	}
	m := &Manager{
		eng:    eng,
		net:    net,
		params: params,
		pid:    pid,
		origin: origin,
		rec:    rec,
		chaos:  net.Chaos(),
		nodes:  make([]*nodeState, nodes),
	}
	for i := range m.nodes {
		m.nodes[i] = &nodeState{faults: make(map[fkey]*faultGroup), routes: make(routes), peers: make([]peer, nodes)}
	}
	m.e.m = m
	m.initProtocol()
	return m
}

// view returns the engine lane view protocol work at node runs on, so
// protocol tasks spawn on the simulation lane of the node they execute at (on
// an engine without lanes that is the root engine — classic serial behavior).
func (m *Manager) view(node int) *sim.Engine { return m.eng.LaneView(node) }

// InFlightFaults returns the number of lead faults currently being handled
// across all nodes (the sampler's in-flight gauge).
func (m *Manager) InFlightFaults() int { return m.inflight }

// Protocol returns the coherence policy this manager runs.
func (m *Manager) Protocol() Protocol { return m.params.Protocol }

// DirectoryHosts returns, in ascending order, the nodes that host a directory
// table: state the process depends on whether or not a thread ever runs there.
func (m *Manager) DirectoryHosts() []int { return m.dir.hosts }

// Stats returns a snapshot of the protocol counters.
func (m *Manager) Stats() Stats { return m.stats }

// PageTable exposes a node's page table (used by the execution layer for
// data access and by tests for verification).
func (m *Manager) PageTable(node int) *mem.PageTable { return &m.nodes[node].pt }

// Lookup returns the PTE if node already holds the page with the required
// access (the no-fault fast path), or nil. It resolves through the node's
// software TLB: the common case is one direct-mapped probe, no radix walk.
func (m *Manager) Lookup(node int, vpn uint64, write bool) *mem.PTE {
	return m.nodes[node].pt.LookupFast(vpn, write)
}

// TLBStatsNode returns the software-TLB counters of one node's page table.
func (m *Manager) TLBStatsNode(node int) mem.TLBStats { return m.nodes[node].pt.TLBStats() }

// TLBStats returns the software-TLB counters summed over all nodes.
func (m *Manager) TLBStats() mem.TLBStats {
	var s mem.TLBStats
	for _, ns := range m.nodes {
		s.Add(ns.pt.TLBStats())
	}
	return s
}

// FrameStats reports frame pool activity: frames served from the pool,
// frames that fell through to a fresh allocation, and references taken
// instead of copies.
func (m *Manager) FrameStats() (recycled, allocs, shared uint64) {
	return m.frames.Recycled(), m.frames.Allocs(), m.frames.Shares()
}

// freeFrame drops one reference to f, from any node: the holder — a PTE
// that was unmapped, a snapshot no longer needed — lets go of it, and the
// last holder's release returns the frame to the process's pool.
func (m *Manager) freeFrame(f []byte) { m.frames.Release(f) }

// ReclaimRange invalidates all present mappings of node in [lo, hi] and
// recycles the dropped frames. The caller must have quiesced protocol
// activity on the range (as munmap does: VMAs are carved first and busy
// directory entries waited out).
func (m *Manager) ReclaimRange(node int, lo, hi uint64) int {
	return m.nodes[node].pt.ReclaimRange(lo, hi, func(f []byte) { m.freeFrame(f) })
}

// EnsurePage makes the page containing addr accessible at ctx.Node with the
// requested access, running the consistency protocol if needed, and returns
// the PTE. The returned PTE (and its frame) is only guaranteed valid until
// the task next yields to the simulator; callers must copy data in or out
// before blocking again.
func (m *Manager) EnsurePage(t *sim.Task, ctx Ctx, addr mem.Addr, write bool) *mem.PTE {
	ns := m.nodes[ctx.Node]
	vpn := addr.VPN()
	key := fkey{vpn: vpn, write: write}
	var joined *faultGroup
	var joinedSeq uint64
	for {
		if pte := m.Lookup(ctx.Node, vpn, write); pte != nil {
			if write {
				// The caller is about to change the page's bytes.
				pte.Gen++
			}
			return pte
		}
		if g, ok := ns.faults[key]; ok && !m.params.DisableCoalescing {
			// Follower: wait for the leader, then resume with its PTE. A
			// task joins (and is counted against) a given fault group at
			// most once: a spurious wakeup that lands the task back on the
			// same in-flight group must not re-register it or inflate
			// FollowerJoins. The same group recycled for a later leader is
			// a new one.
			if g != joined || g.seq != joinedSeq {
				m.stats.FollowerJoins++
				g.followers = append(g.followers, t)
				joined, joinedSeq = g, g.seq
			}
			parkedAt := t.Now()
			t.ParkOnThenSleep(sim.ReasonHex("fault follower ", uint64(addr)), m.params.FollowerWake)
			if m.rec != nil {
				m.rec.Span("dsm", "fault.follower", ctx.Node, ctx.Task, parkedAt,
					obs.Hex("vpn", vpn))
			}
			continue
		}
		var g *faultGroup
		if n := len(ns.groups); n > 0 {
			g, ns.groups = ns.groups[n-1], ns.groups[:n-1]
		} else {
			g = &faultGroup{}
		}
		ns.faults[key] = g
		m.inflight++
		start := t.Now()
		t.Sleep(faultEntry)
		retries, protocol := m.leadFault(t, ctx, vpn, write)
		delete(ns.faults, key)
		m.inflight--
		for _, f := range g.followers {
			f.Unpark()
		}
		clear(g.followers)
		g.followers = g.followers[:0]
		g.seq++
		ns.groups = append(ns.groups, g)
		if protocol {
			m.recordFault(ctx, addr, write, t.Now()-start, retries)
		}
		// Loop to re-validate: a revocation may already have raced in.
	}
}

func (m *Manager) recordFault(ctx Ctx, addr mem.Addr, write bool, latency time.Duration, retries int) {
	kind := KindRead
	if write {
		kind = KindWrite
		m.stats.WriteFaults++
	} else {
		m.stats.ReadFaults++
	}
	m.stats.TotalLatency += latency
	m.emitFault(FaultEvent{Node: ctx.Node, Task: ctx.Task, Kind: kind, Site: ctx.Site,
		Addr: addr, Latency: latency, Retries: retries})
}

// backoff sleeps t before retrying a NACKed request. node is the faulting
// node: jitter draws come from its lane's split RNG, so backoff schedules
// are a function of that lane's events alone (the root engine's RNG may
// not be touched from a lane running its own window).
func (m *Manager) backoff(t *sim.Task, node, attempt int) {
	t.Sleep(nackBackoffBase*time.Duration(attempt) + time.Duration(m.view(node).Rand().Int63n(int64(nackBackoffJitter))))
}

// ReclaimDeadNode returns all page ownership held by a crashed node to the
// survivors and returns the VPNs whose contents were lost with the node: it
// buries the node in every idle entry. Busy entries are skipped: the
// transaction holding them discovers the death through its own
// retransmission timeout and buries the node where it stands. Every route
// pointing at the dead node is repaired, the pages anchored there are
// anchored at the next node on the ring, every page's anchor learns where its
// entry is — a forwarding chain that ran through the dead node is gone — and
// the dead node's page table and request state are cleared so its frames
// recycle. Where authority migrates it must run where lanes are quiescent:
// core calls it from the global-lane death commit. Reclaiming the
// origin itself is not survivable and is reported as an error rather than
// attempted.
func (m *Manager) ReclaimDeadNode(node int) ([]uint64, error) {
	if node == m.origin {
		return nil, fmt.Errorf("dsm: cannot reclaim the origin node %d: the process dies with its origin", node)
	}
	var lost []uint64
	m.dir.walk(0, ^uint64(0), func(_ int, vpn uint64, de *dirEntry) bool {
		if !de.busy() && m.bury(vpn, de, node, nil) {
			lost = append(lost, vpn)
		}
		return true
	})
	m.repairRoutes(node)
	m.dir.walk(0, ^uint64(0), func(host int, vpn uint64, de *dirEntry) bool {
		if a := m.anchor(vpn); a != host {
			m.learnHome(a, vpn, de.home, de.epoch)
		}
		return true
	})
	m.e.crashed(node)
	m.nodes[node].pt.ReclaimRange(0, ^uint64(0), func(f []byte) { m.freeFrame(f) })
	return lost, nil
}

// bury repairs vpn's entry for the role dead held in it, and reports whether
// the page's contents died with it. It is the one place a death changes an
// entry: ReclaimDeadNode runs it on every idle entry, a transaction that
// finds a peer dead runs it where it stands. A dead home's entry is rebuilt
// at the page's live anchor (rehome). A dead exclusive writer's page goes
// back to its home with fallback's bytes — the grant data a serve retained —
// or zero-filled and counted in PagesLost. A dead reader's copy leaves the
// owners.
func (m *Manager) bury(vpn uint64, de *dirEntry, dead int, fallback []byte) (lost bool) {
	switch {
	case de.home == dead:
		return m.rehome(vpn, de, dead, fallback)
	case de.writer == dead:
		frame := m.frames.Share(fallback)
		if lost = fallback == nil; lost {
			frame = m.frames.GetZeroed()
			m.stats.PagesLost++
		}
		m.nodes[de.home].pt.SetAccess(vpn, frame, mem.AccessRead)
		de.reclaimHome()
	case de.has(dead):
		de.dropOwner(dead)
	}
	return lost
}

// Snapshot holds a copy of every page one node had mapped when SnapshotPages
// last brought it up to date. Each copy remembers the PTE it was taken from
// and that entry's generation then; PTEs are never removed from a page table
// and every change to a mapped page's bytes moves its generation (mem.PTE.Gen),
// so a page whose entry and generation are the ones remembered still holds the
// copied bytes and is not copied again. The generation is 32 bits: two
// versions of a page share a name only after 2^32 changes between two updates.
type Snapshot struct {
	pages []pageCopy // ascending VPN
	spare []pageCopy // the buffer the next update fills
	free  [][]byte   // copies of pages an update dropped, for pages new to s
}

type pageCopy struct {
	vpn  uint64
	pte  *mem.PTE
	gen  uint32
	data []byte
}

// Len reports how many pages the snapshot holds.
func (s *Snapshot) Len() int { return len(s.pages) }

// Page returns the snapshot's copy of vpn.
func (s *Snapshot) Page(vpn uint64) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(s.pages, vpn, func(c pageCopy, vpn uint64) int { return cmp.Compare(c.vpn, vpn) })
	if !ok {
		return nil, false
	}
	return s.pages[i].data, true
}

// SnapshotPages brings s up to date with every page node currently holds
// mapped and returns how many pages it copied: those new to s or whose
// generation moved, copied into the frame s already had for them (a page new
// to s takes the frame of one that s dropped, if any). Afterwards s
// holds exactly what a fresh copy of each present page would. Its frames are
// the checkpoint layer's, kept and reused by s, never the process's free list.
// The checkpoint layer calls this at a thread's quiescent points: the snapshot, together with
// the thread's register blob, is enough to restart the thread's computation at
// the origin if the node later dies. The walk covers only node's own page
// table — never the shared directory — so a checkpoint may run on node's
// simulation lane while other lanes serve unrelated transactions.
func (m *Manager) SnapshotPages(node int, s *Snapshot) (copied int) {
	old, next := s.pages, s.spare[:0]
	m.nodes[node].pt.ForEach(func(vpn uint64, pte *mem.PTE) bool {
		for len(old) > 0 && old[0].vpn < vpn {
			s.free = append(s.free, old[0].data)
			old = old[1:]
		}
		if !pte.Present {
			return true
		}
		c := pageCopy{vpn: vpn}
		if len(old) > 0 && old[0].vpn == vpn {
			c, old = old[0], old[1:]
			if c.pte == pte && c.gen == pte.Gen {
				next = append(next, c)
				return true
			}
		} else if n := len(s.free); n > 0 {
			c.data, s.free = s.free[n-1], s.free[:n-1]
		} else {
			c.data = mem.NewFrame()
		}
		c.pte, c.gen = pte, pte.Gen
		clear(c.data[copy(c.data, pte.Frame):])
		next = append(next, c)
		copied++
		return true
	})
	for _, c := range old {
		s.free = append(s.free, c.data)
	}
	clear(s.pages) // drop the references of pages no longer present
	s.pages, s.spare = next, s.pages[:0]
	return copied
}

// RestorePage copies a checkpointed page image over the current home's
// frame for vpn. It is called after ReclaimDeadNode has landed a
// zero-filled replacement for each lost page at the page's live anchor;
// restoring rewinds the page to the crashed thread's last quiescent point so
// a restarted thread replays from consistent bytes. Reports whether the home
// held a frame to restore into. The bytes change under a PTE whose generation
// that reclaim moved in this same event (every lost page was mapped anew), so
// no watcher of the generation can have read in between, and in a frame fresh
// from the pool that only the home holds, so no sharer sees them change.
func (m *Manager) RestorePage(vpn uint64, data []byte) bool {
	de, ok := m.dir.find(vpn)
	if !ok {
		return false
	}
	frame := m.presentFrame(de.home, vpn)
	copy(frame, data)
	return frame != nil
}

// DropDirectoryRange removes all ownership state for pages lo..hi
// (inclusive VPNs) and the directory-holding nodes' own mappings, after the
// caller has already invalidated remote PTEs in the range. It is used when
// VMAs shrink (munmap). Pages with a transaction still in its install window
// are waited out (those windows are bounded by one grant round trip); if a
// page stays busy — the application is unmapping memory it is concurrently
// faulting on — an error is returned. Under the sharded placement the
// entries live spread across per-node tables that only their own lanes may
// touch, so each removal attempt runs at quiescence and the unmapping task
// parks until it completes.
func (m *Manager) DropDirectoryRange(t *sim.Task, lo, hi uint64) error {
	for attempt := 0; ; attempt++ {
		var busyVPN uint64
		var busy bool
		m.quiesce(t, m.origin, "munmap directory drop", func() { busyVPN, busy = m.dropRange(lo, hi) })
		if !busy {
			return nil
		}
		if attempt >= 50 {
			return fmt.Errorf("dsm: munmap races with a persistent transaction on vpn %#x", busyVPN)
		}
		t.Sleep(20 * time.Microsecond)
	}
}
