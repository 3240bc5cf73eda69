package dsm

import (
	"fmt"

	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Wire sizes of the protocol control messages in bytes. Page data itself
// travels through the fabric's page path, not inside these messages.
const (
	pageRequestSize = 64
	pageReplySize   = 56
	revokeSize      = 64
	revokeAckSize   = 40
	homeHintSize    = 48
)

// pageRequest asks a home node for access to a page. o is the requester's
// record the request lives in: it has already prepared the landing zone o.pr
// for possible page data, and the serve holds o (engine.go). floor, here and
// on the reply and the revocation, is its sender's (engine.go). Every message
// names the record it lives in, whose holders its flights are (fabric.Held).
type pageRequest struct {
	pid   int
	vpn   uint64
	write bool
	node  int
	token uint64
	floor uint64
	o     *outstanding
}

func (*pageRequest) Size() int { return pageRequestSize }

// ChaosExpendable marks every idempotent protocol message as fair game for
// fault injection: duplicates are detected by token or sequence number and
// losses are repaired by retransmission, so the injector may drop or
// duplicate them freely.
func (*pageRequest) ChaosExpendable() {}
func (*pageReply) ChaosExpendable()   {}
func (*installAck) ChaosExpendable()  {}
func (*revokeMsg) ChaosExpendable()   {}
func (*revokeAck) ChaosExpendable()   {}
func (*homeHintMsg) ChaosExpendable() {}

// protoMsg is a message of this protocol: it names the process it belongs to.
type protoMsg interface {
	fabric.Message
	process() int
}

func (r *pageRequest) process() int { return r.pid }
func (r *pageReply) process() int   { return r.pid }
func (a *installAck) process() int  { return a.pid }
func (r *revokeMsg) process() int   { return r.pid }
func (a *revokeAck) process() int   { return a.pid }
func (h *homeHintMsg) process() int { return h.pid }

// outcome is the one answer a page request comes to (§III-B/C): at the
// requester the reply it received, at the home the reply it sent and — for
// the serve's span — how the transaction ended when that was not a reply.
// Its String is the outcome text of the fault.request and origin.serve spans.
type outcome uint8

const (
	inFlight  outcome = iota // not answered yet
	grant                    // ownership only: the requester's copy is fresh
	grantData                // ownership, with page data in the requester's landing zone
	nack                     // the directory entry was busy: back off and retry
	stale                    // a concurrent transaction already satisfied the request: re-validate the PTE
	redirect                 // not the page's home: retry at pageReply.home
	deadHome                 // the home died with the exchange in flight
	// Home side only, never on the wire.
	requesterDead     // the requester died before the serve dispatched
	moved             // authority left between dispatch and serve (the reply sent is a redirect)
	rolledBack        // the requester died inside the grant window: the grant was undone
	deadHomeFinalized // the home died inside the grant window, the grant had landed
)

var outcomeNames = [...]string{"in-flight", "grant", "grant+data", "nack", "stale", "redirect", "dead-home",
	"dead", "moved", "rollback", "dead-home-finalize"}

func (o outcome) String() string { return outcomeNames[o] }

// granted: the requester holds (or is about to install) the ownership it
// asked for.
func (o outcome) granted() bool { return o == grant || o == grantData }

// bounced: the home turned the request away with a reply the requester acts
// on by asking again (or, for stale, by looking again).
func (o outcome) bounced() bool { return o == nack || o == stale || o == redirect }

// pageReply answers a pageRequest with its outcome. For a redirect, home
// carries where to retry: one hop down the forwarding chain. epoch stamps the
// routing information where authority migrates: the home-handoff epoch at
// which home is (or, for a write grant, becomes) the page's home. The extra
// fields ride in the modeled 56-byte envelope. st is the serve record the
// reply lives in.
type pageReply struct {
	pid     int
	token   uint64
	outcome outcome
	home    int
	epoch   uint64
	floor   uint64
	st      *serveState
}

func (*pageReply) Size() int { return pageReplySize }

// installAck tells the serving home the requester has installed its granted
// PTE, closing the page's ownership-transition window. It is the request
// sent back, as a revocation's ack is the revocation.
type installAck pageRequest

func (*installAck) Size() int { return revokeAckSize }

// revokeMsg revokes (or downgrades) a node's copy of a page. home is the
// node that issued it (acks return there); newHome, when >= 0, is a hint
// telling the target where the page's home is about to move, stamped with
// the handoff epoch newEpoch. If needData is set, the target must
// ship its copy into the landing zone of pull (at the issuing home) with the
// ack. w is the issuer's record it lives in: pull's wait, for a pull.
type revokeMsg struct {
	pid       int
	vpn       uint64
	seq       uint64
	floor     uint64
	downgrade bool
	needData  bool
	home      int
	newHome   int
	newEpoch  uint64
	pull      *pull
	w         *revokeWaiter
}

func (*revokeMsg) Size() int { return revokeSize }

// revokeAck acknowledges a revokeMsg. It is the revocation sent back: it
// names the process, sequence number and record its revocation does.
type revokeAck revokeMsg

func (*revokeAck) Size() int { return revokeAckSize }

// homeHintMsg is the path-compression message: after a
// grant that walked a forwarding chain lands, the requester tells every
// node that redirected it where the page's home now is (and at which
// handoff epoch), so each hop's pointer jumps straight there. It is
// fire-and-forget and idempotent — applying a duplicate rewrites the same
// pointer, a stale one (older epoch than the hop already believes) is
// rejected, and a lost one merely leaves the chain longer until the next
// chained grant. It is its own record: its sender and its flights hold it.
type homeHintMsg struct {
	pid     int
	vpn     uint64
	home    int
	epoch   uint64
	m       *Manager
	holders int16 // recycler
}

func (*homeHintMsg) Size() int { return homeHintSize }

func (h *homeHintMsg) String() string { return fmt.Sprintf("home hint for vpn %#x", h.vpn) }
func (h *homeHintMsg) held() *int16   { return &h.holders }

// Hold and Release are a flight's hold on the record a message lives in.
func (r *pageRequest) Hold()    { hold(r.o) }
func (r *pageRequest) Release() { r.o.release() }
func (a *installAck) Hold()     { hold(a.o) }
func (a *installAck) Release()  { a.o.release() }
func (r *pageReply) Hold()      { hold(r.st) }
func (r *pageReply) Release()   { r.st.release() }
func (r *revokeMsg) Hold()      { hold(r.w) }
func (r *revokeMsg) Release()   { r.w.release() }
func (a *revokeAck) Hold()      { hold(a.w) }
func (a *revokeAck) Release()   { a.w.release() }
func (h *homeHintMsg) Hold()    { hold(h) }
func (h *homeHintMsg) Release() { h.m.e.hints.release(h) }

// HandleMessage processes a fabric message addressed to node if it belongs
// to this manager's protocol and process; it reports whether the message
// was consumed. It runs in event context and spawns tasks for any blocking
// work.
func (m *Manager) HandleMessage(node, src int, msg fabric.Message) bool {
	pm, ok := msg.(protoMsg)
	if !ok || pm.process() != m.pid {
		return false
	}
	switch mm := pm.(type) {
	case *pageRequest:
		m.dispatchRequest(node, mm)
	case *pageReply:
		m.e.deliverReply(node, src, mm)
	case *revokeMsg:
		if r := m.e.revokeArrived(node, mm); r != nil {
			m.applyRevokeAdmitted(r)
		}
	case *installAck:
		m.e.installAcked(node, mm.token)
	case *revokeAck:
		m.e.revokeAcked(node, mm.seq)
	case *homeHintMsg:
		m.applyHomeHint(node, mm)
	}
	return true
}

// applyHomeHint installs a path-compression hint: this
// node redirected a fault that has since been granted at mm.home, so point
// the forwarding chain straight there. A node that (re)gained authority in
// the meantime — or already holds a fresher route (higher epoch) — ignores
// the stale hint; the epoch gate lives in learnHome.
func (m *Manager) applyHomeHint(node int, msg *homeHintMsg) {
	if _, hosted := m.dir.get(node, msg.vpn); hosted || msg.home == node {
		return
	}
	if !m.learnHome(node, msg.vpn, msg.home, msg.epoch) {
		return
	}
	m.stats.ChainHints++
	if m.rec != nil {
		// Applied in event context on the hinted node's lane.
		m.mark(node, "dist.compress", msg.vpn, obs.Int("home", int64(msg.home)))
	}
}

// RunTask runs the home side of one page transaction in st's own task (the
// transaction may block on revocations). The directory entry stays busy
// until the requester acknowledges its PTE install: the page is in ownership
// transition for that whole window, and conflicting requests are NACKed —
// the source of the retried, slow faults of §V-D. st.home is the node the
// transaction is served at (the origin under WriteInvalidate). A request
// bounced at dispatch is closed before its task starts, which only replies,
// after the dispatch delay. The task sleeps originDispatch before it runs
// this: its start leaves that sleep (sim.Engine.StartSleeping).
func (st *serveState) RunTask(t *sim.Task) {
	m, home, req := st.m, st.home, st.req
	if st.closed {
		m.net.Send(t, home, req.node, &st.reply)
		return
	}
	serveAt := t.Now() - originDispatch
	out := m.serve(t, st)
	m.e.closeServe(st)
	if m.rec != nil {
		kind := "read"
		if req.write {
			kind = "write"
		}
		// From dispatch to the point the directory entry is released (or the
		// request is bounced).
		m.rec.Span("dsm", "origin.serve", home, -1, serveAt,
			obs.Hex("vpn", req.vpn),
			obs.String("kind", kind),
			obs.Int("from", int64(req.node)),
			obs.String("outcome", out.String()))
	}
}

// serve is the rest of a serve task after dispatch; it returns how the
// transaction ended.
func (m *Manager) serve(t *sim.Task, st *serveState) outcome {
	home, req := st.home, st.req
	if m.dead(req.node) {
		// The requester died before we dispatched; its landing zone is gone.
		return requesterDead
	}
	de, _ := m.resident(home, req.vpn)
	if de == nil {
		// Authority moved away between dispatch and serve (or a munmap took
		// the entry): bounce the requester one hop down the forwarding chain,
		// stamped with the epoch this shard learned its route at.
		target := m.requestTarget(home, req.vpn)
		if target == home { // an anchor that knows the page but not its dead home: as route does, NACK
			m.net.Send(t, home, req.node, m.e.bounce(st, nack, 0, 0))
			return nack
		}
		m.net.Send(t, home, req.node, m.redirect(st, target, m.nodes[home].routes[req.vpn].epoch))
		return moved
	}
	if de.busy() {
		m.net.Send(t, home, req.node, m.e.bounce(st, nack, 0, 0))
		return nack
	}
	if (!req.write && de.has(req.node)) || (req.write && de.writer == req.node) {
		// A concurrent transaction already satisfied this request (e.g. a
		// read request racing with the same node's write grant): tell the
		// requester to re-validate its PTE.
		m.net.Send(t, home, req.node, m.e.bounce(st, stale, 0, 0))
		return stale
	}
	m.stats.DirServes++
	if home == m.origin {
		m.stats.OriginServes++
	}
	de.begin()
	t.Sleep(directoryCost)
	data := m.serveLocked(t, de, req.node, req.vpn, req.write)
	// A write grant hands the home off to the requester at the next epoch; a
	// read grant pins the serving home at the current one.
	epoch := de.epoch
	if req.write {
		epoch++
	}
	m.e.grant(t, st, data, epoch)
	out := m.e.awaitInstall(t, st)
	if !out.granted() {
		return m.settleDeath(t, st, de, out)
	}
	m.settle(st, de, true, false)
	return out
}

// settleDeath closes st's grant window after the requester or the serving
// home died inside it (out says which), and returns how the serve ended: the
// ack never will arrive. A grant that demonstrably landed is finalized as its
// ack would have been, one that did not is rolled back. Deciding which reads
// the requester's tables, so it runs with the settlement at quiescence; the
// closure moves out to the heap, so only this path pays for it.
func (m *Manager) settleDeath(t *sim.Task, st *serveState, de *dirEntry, out outcome) outcome {
	m.quiesce(t, st.home, "grant window settle", func() {
		landed := m.e.granteeDelivered(st)
		switch {
		case landed && out == deadHome:
			out = deadHomeFinalized
		case landed && st.req.write && m.migrates:
			// The dead requester adopted the page: its entry is the page's
			// lineage now, wherever that has moved on to.
			out = st.reply.outcome
		default:
			// A dead reader's copy goes with it; a dead writer that does not
			// adopt leaves the page to the home, with the grant's bytes.
			landed = false
		}
		m.settle(st, de, landed, true)
	})
	return out
}

// redirect is the shared tail of every bounce toward another node: count
// the hop along the forwarding chain and answer st's request with target, the
// node the requester should retry at.
func (m *Manager) redirect(st *serveState, target int, epoch uint64) *pageReply {
	m.stats.Forwards++
	return m.e.bounce(st, redirect, target, epoch)
}

// settle closes st's grant window: grantCompleted finalizes an installed
// grant (authority moves to a new writer), a requester that died without
// installing is buried with the serve's retained snapshot, and the entry goes
// idle. Under fault injection an entry left idle at a home that died during
// the serve is then buried too, rather than waiting for a later request to
// stumble into the failover path. quiescent says the caller already runs
// where every table may be touched; a rebuild deferred until it does takes
// the snapshot from st, and releases it when it is done.
func (m *Manager) settle(st *serveState, de *dirEntry, installed, quiescent bool) {
	home, req, data := st.home, st.req, st.data
	switch {
	case installed:
		m.grantCompleted(de, req)
		if !quiescent || de.home != req.node {
			break
		}
		// A write grant landed across a death. A live requester is told to
		// the page's live anchor, as a rebuild would tell it: the reclaim may
		// have committed already. A dead one that still homes the page is
		// buried, and the page rebuilt from the grant's bytes.
		if !m.dead(req.node) {
			m.learnHome(m.liveAnchor(req.vpn), req.vpn, req.node, de.epoch)
		} else if cur := m.stranded(req.node, req.vpn); cur != nil {
			m.bury(req.vpn, cur, req.node, data)
		}
	case m.dead(req.node):
		m.bury(req.vpn, de, req.node, data)
	}
	de.end()
	if m.chaos == nil || m.stranded(home, req.vpn) == nil {
		return
	}
	vpn := req.vpn // a rebuild at quiescence may run after st and its request are reused
	rebuild := func() {
		if cur := m.stranded(home, vpn); cur != nil {
			m.bury(vpn, cur, cur.home, data)
		}
	}
	if quiescent {
		rebuild()
		return
	}
	st.data = nil
	m.atQuiescence(home, func() { rebuild(); m.freeFrame(data) })
}

// applyRevokeAdmitted runs the revocation of r, which has passed the
// engine's duplicate detection, in r's own task. If the page is in the
// grant-to-install window of an outstanding request, application is deferred
// until the install completes (the revocation necessarily targets the
// ownership that request was just granted); deferral re-enters here so a
// deferred revocation is not mistaken for its own duplicate.
func (m *Manager) applyRevokeAdmitted(r *appliedRevoke) {
	if m.e.deferRevoke(m.nodes[r.node], r) {
		return
	}
	m.view(int(r.node)).StartSleeping(&r.run, "dsm-revoke", r, invalidateApply)
}

// RunTask applies r's revocation, once its task has slept invalidateApply,
// and acks it.
func (r *appliedRevoke) RunTask(t *sim.Task) {
	m, node, msg, ns := r.m, int(r.node), r.msg, r.m.nodes[r.node]
	vpn, downgrade := msg.vpn, msg.downgrade
	applyAt := t.Now() - invalidateApply
	pte := ns.pt.Lookup(vpn)
	var frame []byte
	if pte != nil {
		frame = pte.Frame
	}
	dropped := false
	if downgrade {
		ns.pt.SetAccess(vpn, nil, mem.AccessRead)
	} else {
		dropped = ns.pt.SetAccess(vpn, nil, mem.AccessNone) != nil
	}
	if msg.newHome >= 0 {
		// The revocation tells us where the page's home is about to
		// move; remember it so our next fault routes there.
		m.learnHome(node, vpn, msg.newHome, msg.newEpoch)
	}
	m.emitInvalidate(node, vpn)
	if msg.needData && frame == nil {
		panic(fmt.Sprintf("dsm: revoke needs data for vpn %#x but node %d has no frame", vpn, node))
	}
	m.sendRevokeAck(t, r, frame)
	m.e.revokeApplied(r, frame)
	if dropped {
		m.freeFrame(frame) // the reference the invalidation took from the PTE
	}
	if m.rec != nil {
		mode := "invalidate"
		if downgrade {
			mode = "downgrade"
		}
		m.rec.Span("dsm", "revoke.apply", node, -1, applyAt,
			obs.Hex("vpn", vpn),
			obs.String("mode", mode))
	}
}
