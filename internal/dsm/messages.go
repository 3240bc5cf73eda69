package dsm

import (
	"fmt"
	"time"

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

// pageRequest asks a home node for access to a page. The requester has
// already prepared a landing zone (pr) for possible page data.
type pageRequest struct {
	pid   int
	vpn   uint64
	write bool
	node  int
	token uint64
	pr    *fabric.PageRecv
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

// pageReply answers a pageRequest. nack means the directory entry was busy
// and the requester must retry; stale means the request was already
// satisfied by a concurrent transaction (the requester re-validates its
// PTE); redirect means the request landed at a node that is not the page's
// home and home carries where to retry (the authoritative home under
// HomeMigrate, one hop down the forwarding chain under DistributedManager);
// withData means page data was RDMA'd into the requester's prepared landing
// zone. epoch stamps the routing information under DistributedManager: the
// home-handoff epoch at which home is (or, for a write grant, becomes) the
// page's home. The extra fields ride in the modeled 56-byte envelope.
type pageReply struct {
	pid      int
	token    uint64
	nack     bool
	stale    bool
	redirect bool
	home     int
	epoch    uint64
	withData bool
}

func (*pageReply) Size() int { return pageReplySize }

// installAck tells the serving home the requester has installed its granted
// PTE, closing the page's ownership-transition window.
type installAck struct {
	pid   int
	token uint64
}

func (*installAck) Size() int { return revokeAckSize }

// revokeMsg revokes (or downgrades) a node's copy of a page. home is the
// node that issued it (acks return there); newHome, when >= 0, is a hint
// telling the target where the page's home is about to move, stamped with
// the handoff epoch newEpoch (DistributedManager; zero under HomeMigrate,
// which applies hints unconditionally). If needData is set, the target must
// ship its copy into pr (at the issuing home) with the ack.
type revokeMsg struct {
	pid       int
	vpn       uint64
	seq       uint64
	downgrade bool
	needData  bool
	home      int
	newHome   int
	newEpoch  uint64
	pr        *fabric.PageRecv
}

func (*revokeMsg) Size() int { return revokeSize }

// revokeAck acknowledges a revokeMsg.
type revokeAck struct {
	pid int
	seq uint64
}

func (*revokeAck) Size() int { return revokeAckSize }

// homeHintMsg is the DistributedManager path-compression message: after a
// grant that walked a forwarding chain lands, the requester tells every
// node that redirected it where the page's home now is (and at which
// handoff epoch), so each hop's pointer jumps straight there. It is
// fire-and-forget and idempotent — applying a duplicate rewrites the same
// pointer, a stale one (older epoch than the hop already believes) is
// rejected, and a lost one merely leaves the chain longer until the next
// chained grant.
type homeHintMsg struct {
	pid   int
	vpn   uint64
	home  int
	epoch uint64
}

func (*homeHintMsg) Size() int { return homeHintSize }

// HandleMessage processes a fabric message addressed to node if it belongs
// to this manager's protocol and process; it reports whether the message
// was consumed. It runs in event context and spawns tasks for any blocking
// work.
func (m *Manager) HandleMessage(node, src int, msg fabric.Message) bool {
	switch mm := msg.(type) {
	case *prefetchRequest:
		if mm.pid != m.pid {
			return false
		}
		if node != m.origin {
			panic(fmt.Sprintf("dsm: prefetch request delivered to node %d (origin %d)", node, m.origin))
		}
		m.view(m.origin).Spawn("dsm-prefetch", func(t *sim.Task) { m.servePrefetch(t, mm) })
		return true
	case *pageRequest:
		if mm.pid != m.pid {
			return false
		}
		m.dispatchRequest(node, mm)
		return true
	case *pageReply:
		if mm.pid != m.pid {
			return false
		}
		m.handleReply(node, mm)
		return true
	case *revokeMsg:
		if mm.pid != m.pid {
			return false
		}
		if m.e.admitRevoke(node, mm) {
			m.applyRevokeAdmitted(node, mm)
		}
		return true
	case *installAck:
		if mm.pid != m.pid {
			return false
		}
		// The wait record lives at the serving home that issued the grant —
		// the node this ack was addressed to.
		m.closeWaiter(m.nodes[node].installWait, mm.token, "install ack token")
		return true
	case *revokeAck:
		if mm.pid != m.pid {
			return false
		}
		// Likewise: revocations are issued from (and acked to) the serving
		// home, whose lane is running right now.
		m.closeWaiter(m.nodes[node].revokeWait, mm.seq, "revoke ack seq")
		return true
	case *homeHintMsg:
		if mm.pid != m.pid {
			return false
		}
		m.applyHomeHint(node, mm)
		return true
	default:
		return false
	}
}

// closeWaiter completes the open waiter an ack names and wakes its serving
// task. An ack without a waiter is a duplicate of one that already closed the
// window under fault injection, and a protocol bug otherwise.
func (m *Manager) closeWaiter(ws map[uint64]*revokeWaiter, key uint64, what string) {
	w, ok := ws[key]
	if !ok {
		if m.chaos != nil {
			m.stats.DupsIgnored++
			return
		}
		panic(fmt.Sprintf("dsm: stray %s %d", what, key))
	}
	delete(ws, key)
	w.done = true
	w.task.Unpark()
}

// applyHomeHint installs a DistributedManager path-compression hint: this
// node redirected a fault that has since been granted at mm.home, so point
// the forwarding chain straight there. A node that (re)gained authority in
// the meantime — or already holds a fresher route (higher epoch) — ignores
// the stale hint; the epoch gate lives in the policy's learnHome.
func (m *Manager) applyHomeHint(node int, msg *homeHintMsg) {
	if _, hosted := m.dir.get(node, msg.vpn); hosted || msg.home == node {
		return
	}
	if !m.policy.learnHome(node, msg.vpn, msg.home, msg.epoch) {
		return
	}
	m.stats.ChainHints++
	if m.rec != nil {
		// Applied in event context on the hinted node's lane.
		rec := m.rec.OnLane(node)
		rec.SpanAt("dsm", "dist.compress", node, -1, rec.Now(), 0,
			obs.Hex("vpn", msg.vpn),
			obs.Int("home", int64(msg.home)))
	}
}

// servePageRequest runs the home side of one page transaction in its own
// task (the transaction may block on revocations). The directory entry
// stays busy until the requester acknowledges its PTE install: the page is
// in ownership transition for that whole window, and conflicting requests
// are NACKed — the source of the retried, slow faults of §V-D. home is the
// node this transaction is served at (the origin under WriteInvalidate).
func (m *Manager) servePageRequest(t *sim.Task, home int, req *pageRequest, st *serveState) {
	var serveAt time.Duration
	if m.rec != nil {
		serveAt = t.Now()
	}
	t.Sleep(m.params.OriginDispatch)
	if st != nil && m.chaos.NodeDead(req.node) {
		// The requester died before we dispatched; its landing zone is gone.
		st.close(t.Now())
		m.serveSpan(serveAt, home, req, "dead")
		return
	}
	de := m.policy.serveEntry(home, req.vpn)
	if de == nil {
		// Authority moved away between dispatch and serve: bounce the
		// requester one hop down the forwarding chain, stamped with the epoch
		// this shard learned its route at.
		target := m.requestTarget(home, req.vpn)
		epoch := m.nodes[home].routeEpoch[req.vpn]
		if target == home {
			target = m.liveAnchor(req.vpn)
			epoch = 0
		}
		m.net.Send(t, home, req.node, m.redirect(req, st, target, epoch, t.Now()))
		m.serveSpan(serveAt, home, req, "moved")
		return
	}
	if de.busy() {
		if st != nil {
			st.nack = true
			st.close(t.Now())
		}
		m.net.Send(t, home, req.node, &pageReply{pid: m.pid, token: req.token, nack: true})
		m.serveSpan(serveAt, home, req, "nack")
		return
	}
	if (!req.write && de.has(req.node)) || (req.write && de.writer == req.node) {
		// A concurrent transaction already satisfied this request (e.g. a
		// read request racing with the same node's write grant): tell the
		// requester to re-validate its PTE.
		if st != nil {
			st.stale = true
			st.close(t.Now())
		}
		m.net.Send(t, home, req.node, &pageReply{pid: m.pid, token: req.token, stale: true})
		m.serveSpan(serveAt, home, req, "stale")
		return
	}
	m.stats.DirServes++
	if home == m.origin {
		m.stats.OriginServes++
	}
	de.begin()
	t.Sleep(m.params.Directory)
	withData, data := m.serveLocked(t, de, req.node, req.vpn, req.write)
	// A write grant hands the home off to the requester at the next epoch; a
	// read grant pins the serving home at the current one.
	repEpoch := de.epoch
	if req.write {
		repEpoch++
	}
	reply := &pageReply{pid: m.pid, token: req.token, withData: withData, epoch: repEpoch}
	ack := &revokeWaiter{task: t}
	m.nodes[home].installWait[req.token] = ack
	if st != nil {
		st.withData = withData
		if withData {
			// Retain a snapshot so the grant can be re-sent if it is lost.
			st.data = append([]byte(nil), data...)
		}
	}
	if withData {
		m.net.SendPageBuf(t, home, req.node, req.pr, data, reply, m.pool(home).Get())
		if req.write {
			// A write grant revoked the home's own copy inside serveWrite,
			// so data is now an orphan; the send above snapshotted it before
			// yielding. Recycle it.
			m.freeFrame(home, data)
		}
	} else {
		m.net.Send(t, home, req.node, reply)
	}
	outcome := "grant"
	if withData {
		outcome = "grant+data"
	}
	settled := false
	if st == nil {
		m.e.waitRevokes(t, []*revokeWaiter{ack})
	} else {
		// Under fault injection the grant, its data, or the install ack may
		// be lost: re-send the grant after each retry timeout. If the
		// requester is confirmed dead, roll the half-finished transfer back
		// so the page stays reachable.
		rto := m.params.RetryTimeout
		attempt := 0
		for !ack.done {
			if t.ParkTimeout("install ack", rto) || ack.done {
				continue
			}
			if m.chaos.NodeDead(req.node) {
				delete(m.nodes[home].installWait, req.token)
				m.e.rollbackGrant(req, st, de)
				outcome = "rollback"
				break
			}
			if home != m.origin && m.chaos.NodeDead(home) {
				delete(m.nodes[home].installWait, req.token)
				outcome, settled = m.settleDeadHome(t, home, de, req, st, ack), true
				break
			}
			m.stats.Retransmits++
			attempt++
			m.retransmitSpan(home, "grant", attempt, rto)
			m.e.resendGrant(t, st)
			if rto *= 2; rto > m.params.RetryTimeoutMax {
				rto = m.params.RetryTimeoutMax
			}
		}
	}
	if !settled {
		// ack.done: the requester installed its grant (a rollback leaves it unset).
		m.settle(home, de, req, st, ack.done, false)
	}
	if st != nil {
		st.close(t.Now())
	}
	m.serveSpan(serveAt, home, req, outcome)
}

// settle closes a serve's grant window: the policy finalizes an installed
// grant (authority moves to a new writer), the entry goes idle, and — under
// fault injection — an entry left idle at a home that died during the serve
// is rebuilt at the page's live anchor rather than waiting for a later
// request to stumble into the failover path. quiescent says the caller
// already runs where every table may be touched.
func (m *Manager) settle(home int, de *dirEntry, req *pageRequest, st *serveState, installed, quiescent bool) {
	if installed {
		m.policy.grantCompleted(de, req)
	}
	de.end()
	if st == nil || m.stranded(home, req.vpn) == nil {
		return
	}
	rebuild := func() {
		if cur := m.stranded(home, req.vpn); cur != nil {
			m.rehome(req.vpn, cur, cur.home, st.data)
		}
	}
	if quiescent {
		rebuild()
	} else {
		m.atQuiescence(home, rebuild)
	}
}

// settleDeadHome settles a grant window whose serving home died before the
// install ack could arrive: the serve task itself survives the crash, but
// every message to or from the node is dropped, so the ack never will. A
// grant that reached the requester is finalized exactly as its install ack
// would have been; an undelivered one is undone and the page rebuilt at its
// live anchor. Deciding which reads the requester's tables, and the rebuild
// may move the entry into another node's — after which only that node's lane
// may touch it — so decision and settlement run together at quiescence. It
// returns the serve's outcome.
func (m *Manager) settleDeadHome(t *sim.Task, home int, de *dirEntry, req *pageRequest, st *serveState, ack *revokeWaiter) (outcome string) {
	m.quiesce(t, home, "dist dead-home settle", func() {
		if m.granteeDelivered(req) {
			ack.done = true
			outcome = "dead-home-finalize"
		} else {
			m.rehome(req.vpn, de, home, st.data)
			outcome = "dead-home"
		}
		m.settle(home, de, req, st, ack.done, true)
	})
	return outcome
}

// granteeDelivered reports whether the grant for req demonstrably reached
// the requester: it either finished installing, or holds the grant reply
// and will finish the install without further protocol traffic.
func (m *Manager) granteeDelivered(req *pageRequest) bool {
	ns := m.nodes[req.node]
	if _, ok := ns.completed[req.token]; ok {
		return true
	}
	if o, ok := ns.outstanding[req.token]; ok {
		return o.done && !o.nack && !o.stale && !o.redirect && !o.deadHome
	}
	return false
}

// serveSpan records the home-side span of one page transaction, from
// dispatch to the point the directory entry is released (or the request is
// bounced).
func (m *Manager) serveSpan(start time.Duration, home int, req *pageRequest, outcome string) {
	if m.rec == nil {
		return
	}
	kind := "read"
	if req.write {
		kind = "write"
	}
	// The serve task runs on the serving home's lane.
	m.rec.OnLane(home).Span("dsm", "origin.serve", home, -1, start,
		obs.Hex("vpn", req.vpn),
		obs.String("kind", kind),
		obs.Int("from", int64(req.node)),
		obs.String("outcome", outcome))
}

// handleReply wakes the requester task waiting on the matching token.
func (m *Manager) handleReply(node int, rep *pageReply) {
	ns := m.nodes[node]
	req, ok := ns.outstanding[rep.token]
	if !ok {
		if m.chaos != nil {
			if cg, done := ns.completed[rep.token]; done {
				// A grant reply re-sent after our install ack was lost:
				// re-ack the serving home (which under HomeMigrate need not
				// be the origin) so it can close its transition window.
				m.stats.Retransmits++
				m.view(node).Spawn("dsm-reack", func(t *sim.Task) {
					m.net.Send(t, node, cg.home, &installAck{pid: m.pid, token: rep.token})
				})
			} else {
				m.stats.DupsIgnored++
			}
			return
		}
		panic(fmt.Sprintf("dsm: stray page reply token %d at node %d", rep.token, node))
	}
	if req.done {
		// A duplicated reply raced in before the requester task resumed.
		m.stats.DupsIgnored++
		return
	}
	req.done = true
	req.nack = rep.nack
	req.stale = rep.stale
	req.redirect = rep.redirect
	req.home = rep.home
	req.epoch = rep.epoch
	req.withData = rep.withData
	req.task.Unpark()
}

// applyRevokeAdmitted runs a revocation that has passed the engine's
// duplicate detection. If the page is in the grant-to-install window of an
// outstanding request, application is deferred until the install completes
// (the revocation necessarily targets the ownership that request was just
// granted); deferral re-enters here so a deferred revocation is not
// mistaken for its own duplicate.
func (m *Manager) applyRevokeAdmitted(node int, msg *revokeMsg) {
	ns := m.nodes[node]
	if o := m.e.installingFor(ns, msg.vpn); o != nil {
		o.deferred = append(o.deferred, func() { m.applyRevokeAdmitted(node, msg) })
		return
	}
	m.view(node).Spawn("dsm-revoke", func(t *sim.Task) {
		var applyAt time.Duration
		if m.rec != nil {
			applyAt = t.Now()
		}
		t.Sleep(m.params.InvalidateApply)
		pte := ns.pt.Lookup(msg.vpn)
		var frame []byte
		if pte != nil {
			frame = pte.Frame
		}
		dropped := false
		if msg.downgrade {
			ns.pt.SetAccess(msg.vpn, nil, mem.AccessRead)
		} else {
			dropped = ns.pt.SetAccess(msg.vpn, nil, mem.AccessNone) != nil
		}
		if msg.newHome >= 0 {
			// The revocation tells us where the page's home is about to
			// move; remember it so our next fault routes there.
			m.policy.learnHome(node, msg.vpn, msg.newHome, msg.newEpoch)
		}
		m.emitInvalidate(node, msg.vpn)
		ack := &revokeAck{pid: m.pid, seq: msg.seq}
		if msg.needData {
			if frame == nil {
				panic(fmt.Sprintf("dsm: revoke needs data for vpn %#x but node %d has no frame", msg.vpn, node))
			}
			m.net.SendPageBuf(t, node, msg.home, msg.pr, frame, ack, m.pool(node).Get())
		} else {
			m.net.Send(t, node, msg.home, ack)
		}
		retained := false
		if m.chaos != nil {
			rec := ns.appliedRevokes[msg.seq]
			rec.pending = false
			rec.appliedAt = t.Now()
			if msg.needData {
				// Retain the page contents so a re-sent revocation (our ack
				// was lost) can be answered with the same data.
				if dropped {
					rec.data = frame
					retained = true
				} else {
					rec.data = append([]byte(nil), frame...)
				}
			}
		}
		if dropped && !retained {
			// The invalidation orphaned this node's frame; any outbound copy
			// was snapshotted by the send above. Recycle it.
			m.freeFrame(node, frame)
		}
		if m.rec != nil {
			mode := "invalidate"
			if msg.downgrade {
				mode = "downgrade"
			}
			// The apply task runs on the revoked node's lane.
			m.rec.OnLane(node).Span("dsm", "revoke.apply", node, -1, applyAt,
				obs.Hex("vpn", msg.vpn),
				obs.String("mode", mode))
		}
	})
}
