// engine.go is the transport engine of the protocol, and the only file in the
// package that knows a message can be lost, duplicated or answered twice. It
// owns the transaction records (outstanding at the requester, serveState at
// the home) and every write to them, token and sequence allocation, the one
// wait loop (RTO, exponential backoff, give-up), duplicate detection with
// bounded dedup state, and rollback of half-finished grants. It guarantees
// exactly-once *application* of protocol messages over a fabric that — under
// fault injection — may drop, duplicate, or delay them; the policies
// (protocol.go) and the directory (directory.go) never see transport failures.
package dsm

import (
	"fmt"
	"slices"
	"time"

	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

const (
	// dedupSweepInterval amortizes dedup-state pruning: one sweep per this
	// many admitted transactions on any one node's lane.
	dedupSweepInterval = 256
	// dedupSweepDelay is how far in the future an exhausted admission budget
	// schedules the sweep. The sweep reads every node's outstanding tables,
	// so it runs as a global-lane event; the delay must clear the engine's
	// lookahead window so a node lane may legally stage it (admitted()
	// raises it to the lookahead when a fabric has a larger one).
	dedupSweepDelay = 200 * time.Microsecond
	// dedupHorizonFactor sizes the retransmit horizon in units of
	// RetryTimeoutMax: a closed dedup record older than the horizon AND below
	// the open-transaction watermark can no longer receive a duplicate that
	// needs its content (any straggler is answered from the watermark alone).
	dedupHorizonFactor = 4
)

// tokenNodeShift positions the allocating node in a request token's top
// bits: every node allocates from a private, monotonic token space on its
// own simulation lane, with no shared counter. Watermark comparisons only
// ever relate tokens of the same node, where the suffix counter makes them
// totally ordered.
const tokenNodeShift = 48

// tokenNode recovers the allocating node from a request token.
func tokenNode(tok uint64) int { return int(tok >> tokenNodeShift) }

// waiter is the parked half of a transaction record. task is set while the
// wait is open and cleared by whatever closes it — the ack, or the wait loop
// giving up — so a late or duplicated ack finds nothing to wake.
type waiter struct {
	task *sim.Task
	done bool
}

// ack closes the open wait and wakes its task; it reports false for an ack
// that has nothing to close.
func (w *waiter) ack() bool {
	if w.task == nil {
		return false
	}
	w.done = true
	w.task.Unpark()
	w.task = nil
	return true
}

// outstanding is the requester-side record of one page request. It goes when
// the request is bounced or, without an injector, installed; with one it
// stays, marked installed, until the sweep prunes it, so a duplicated grant
// reply re-acks the serving home instead of re-running the install. It also
// serializes revocations that target the ownership being granted: a revoke
// arriving between the grant reply and the PTE install is deferred until the
// install completes.
type outstanding struct {
	waiter
	vpn   uint64
	token uint64
	home  int       // the node the request went to (the re-ack target)
	reply pageReply // as received (inFlight until then); a dead-home of the engine's own making if it abandoned the wait
	// installed: the granted PTE is in place (since installedAt, for pruning).
	installed   bool
	installedAt time.Duration
	deferred    []*revokeMsg // revocations to apply once it is
}

// granted reports whether o holds a grant: installed, or about to be without
// further protocol traffic. A bounce in any spelling is none.
func (o *outstanding) granted() bool { return o.reply.outcome.granted() }

// serveState is the home-side record of one page request (or one prefetch
// batch, keyed by its first token): the reply that was sent and, embedded, the
// grant window's wait for the install ack. Without an injector it is dropped
// when the serve closes. With one it stays until the sweep prunes it and
// resolves duplicated requests: a bounced request gets the same reply again —
// never a fresh serve, which could land data in a landing zone the requester
// has already released — and one in flight or granted is ignored, because the
// grant window owns grant retransmission.
type serveState struct {
	waiter
	req      *pageRequest  // nil for a prefetch batch
	home     int           // the node that served (or bounced) this token
	reply    pageReply     // the reply sent; outcome inFlight until there is one
	closed   bool          // the serving task has finished with this token
	closedAt time.Duration // when it finished (for pruning)
	data     []byte        // page snapshot retained for grant re-sends (injector only)
}

// revokeWaiter is the issuing home's record of one revocation in flight. lost
// reports that the wait was abandoned because the target died; for a needData
// revoke the caller must then treat the page contents as lost.
type revokeWaiter struct {
	waiter
	target int
	msg    *revokeMsg
	lost   bool
}

// appliedRevoke is the receiver-side record of one admitted revocation.
type appliedRevoke struct {
	pending   bool          // the original application has not finished yet
	appliedAt time.Duration // when the application finished (for pruning)
	data      []byte        // page snapshot retained for needData re-acks
}

// engine owns the transport-layer state of one Manager. All per-message
// bookkeeping (sequence allocators, transaction records) is sharded per node
// and lives in nodeState: revocations and grants are only ever issued from
// the serving home's own simulation lane, and sharding the state by issuer
// lets several directory shards serve independently under DistributedManager
// without a shared counter or map. The engine itself keeps only the sweep
// watermarks, which are written exclusively on the serialized global lane.
type engine struct {
	m *Manager

	// prunedReqBelow (per allocating node) / prunedRevokeBelow (per issuing
	// node) are the dedup watermarks: every token (resp. seq) below the
	// watermark belongs to a transaction that was fully closed before the
	// last sweep, so an arriving message carrying one — with no surviving
	// dedup record — is necessarily a stale duplicate and is dropped. Each
	// node's tokens and seqs are allocated monotonically, which is what
	// makes the watermark sound: a live transaction can never be below it.
	prunedReqBelow    []uint64
	prunedRevokeBelow []uint64
}

func (e *engine) init(m *Manager) {
	e.m = m
	e.prunedReqBelow = make([]uint64, len(m.nodes))
	e.prunedRevokeBelow = make([]uint64, len(m.nodes))
	for _, ns := range m.nodes {
		ns.sweepBudget = dedupSweepInterval
		ns.outstanding = make(map[uint64]*outstanding)
		ns.served = make(map[uint64]*serveState)
		ns.revokeWait = make(map[uint64]*revokeWaiter)
		ns.appliedRevokes = make(map[uint64]*appliedRevoke)
	}
}

// dead reports whether node n is confirmed dead (without an injector none is).
func (m *Manager) dead(n int) bool { return m.chaos != nil && m.chaos.NodeDead(n) }

// mark records an instant span about vpn at node. A caller with args to build
// checks m.rec first.
func (m *Manager) mark(node int, name string, vpn uint64, args ...obs.Arg) {
	if m.rec == nil {
		return
	}
	m.rec.SpanAt("dsm", name, node, -1, m.rec.Now(), 0, append([]obs.Arg{obs.Hex("vpn", vpn)}, args...)...)
}

// nextSeq allocates from one of node's private counters (request tokens,
// revocation sequence numbers): the allocator rides in the top bits, so each
// node allocates monotonically on its own lane.
func nextSeq(node int, ctr *uint64) uint64 {
	*ctr++
	return uint64(node)<<tokenNodeShift | *ctr
}

// await is the one wait loop: it parks t, at node, until w is acknowledged.
// Without an injector that is all (a zero timeout parks without a timer).
// With one, the message or its ack may have been lost: each time the retry
// timeout expires it asks giveUp whether a peer's death has made the wait
// pointless (giveUp does what abandoning the transaction takes) and otherwise
// re-sends — every protocol message is idempotent — counts the retransmission,
// records its span over the expired window (kind names the message) and
// doubles the timeout up to RetryTimeoutMax.
func (e *engine) await(t *sim.Task, w *waiter, why sim.Reason, node int, kind string, giveUp func() bool, resend func()) {
	m := e.m
	var rto time.Duration
	if m.chaos != nil {
		rto = m.params.RetryTimeout
	}
	attempt := 0
	for !w.done {
		if t.ParkOnTimeout(why, rto) || w.done {
			continue
		}
		if giveUp() {
			w.task = nil
			return
		}
		m.stats.Retransmits++
		attempt++
		if m.rec != nil {
			m.rec.SpanAt("dsm", "retransmit", node, -1, m.rec.Now()-rto, rto,
				obs.String("kind", kind),
				obs.Int("attempt", int64(attempt)),
				obs.String("backoff", rto.String()))
		}
		resend()
		rto = min(2*rto, m.params.RetryTimeoutMax)
	}
}

// replyAfter sends reply from node to dst after the dispatch delay, in a task
// of its own named task: the bounce of a request that never reached a serve.
func (e *engine) replyAfter(task string, node, dst int, reply *pageReply) {
	m := e.m
	m.view(node).Spawn(task, func(t *sim.Task) {
		t.Sleep(m.params.OriginDispatch)
		m.net.Send(t, node, dst, reply)
	})
}

// stray accounts for a reply or an ack that closed nothing: a duplicate of one
// that already closed its wait under fault injection, a protocol bug otherwise.
func (e *engine) stray(what string, key uint64) {
	if e.m.chaos == nil {
		panic(fmt.Sprintf("dsm: stray %s %d", what, key))
	}
	e.m.stats.DupsIgnored++
}

// ---------------------------------------------------------------------------
// The requester side.

// open allocates a token and the record of a request from node to home, with
// t the task that will wait for the reply.
func (e *engine) open(t *sim.Task, node, home int, vpn uint64) *outstanding {
	ns := e.m.nodes[node]
	o := &outstanding{waiter: waiter{task: t}, vpn: vpn, token: nextSeq(node, &ns.reqCtr), home: home}
	ns.outstanding[o.token] = o
	return o
}

// request sends a page request from node to home and parks t until it is
// answered; the returned record holds the reply — a dead-home if home died
// with the exchange in flight (the caller re-routes via the live anchor).
func (e *engine) request(t *sim.Task, node, home int, vpn uint64, write bool, pr *fabric.PageRecv) *outstanding {
	m := e.m
	o := e.open(t, node, home, vpn)
	msg := &pageRequest{pid: m.pid, vpn: vpn, write: write, node: node, token: o.token, pr: pr}
	m.net.Send(t, node, home, msg)
	e.await(t, &o.waiter, sim.ReasonHex("page reply ", vpn<<mem.PageShift), node, "request",
		func() bool {
			if home == m.origin || !m.dead(home) {
				return false
			}
			o.reply.outcome = deadHome
			return true
		},
		func() { m.net.Send(t, node, home, msg) })
	return o
}

// deliverReply hands a page reply to the request it answers and wakes the
// requester.
func (e *engine) deliverReply(node int, rep *pageReply) {
	m, ns := e.m, e.m.nodes[node]
	o, ok := ns.outstanding[rep.token]
	switch {
	case ok && o.installed:
		// A grant reply re-sent after our install ack was lost: re-ack the
		// serving home (which under HomeMigrate need not be the origin) so it
		// can close its transition window.
		m.stats.Retransmits++
		m.view(node).Spawn("dsm-reack", func(t *sim.Task) {
			m.net.Send(t, node, o.home, &installAck{pid: m.pid, token: rep.token})
		})
	case !ok || o.reply.outcome != inFlight:
		// A duplicate of a reply whose transaction is over here, or one that
		// raced in before the requester task resumed.
		e.stray("page reply token", rep.token)
	default:
		o.reply = *rep
		if o.granted() {
			ns.installing = append(ns.installing, o)
		}
		o.ack()
	}
}

// forget drops the record of a request that was bounced.
func (e *engine) forget(node int, o *outstanding) { delete(e.m.nodes[node].outstanding, o.token) }

// installed notes that o's grant is installed at node: the transaction is
// over there.
func (e *engine) installed(node int, o *outstanding, now time.Duration) {
	o.installed, o.installedAt = true, now
	ns := e.m.nodes[node]
	ns.installing = slices.DeleteFunc(ns.installing, func(x *outstanding) bool { return x == o })
	if e.m.chaos == nil {
		e.forget(node, o)
	}
}

// crashed drops the requests node had in flight when it died. Its finished
// installs stay: a home settling a grant window the crash left open still
// asks whether its grant had landed.
func (e *engine) crashed(node int) {
	ns := e.m.nodes[node]
	ns.installing = nil
	for tok, o := range ns.outstanding {
		if !o.installed {
			delete(ns.outstanding, tok)
		}
	}
}

// deferRevoke queues msg behind the install it targets, if ns holds a grant
// for the page that has arrived but is not installed yet (the revocation
// necessarily targets the ownership that request was just granted), and
// reports whether it did. Of several such grants the lowest token's takes it.
func (e *engine) deferRevoke(ns *nodeState, msg *revokeMsg) bool {
	var first *outstanding
	for _, o := range ns.installing {
		if o.vpn == msg.vpn && (first == nil || o.token < first.token) {
			first = o
		}
	}
	if first == nil {
		return false
	}
	first.deferred = append(first.deferred, msg)
	return true
}

// granteeDelivered reports whether the grant for req demonstrably reached
// the requester: it either finished installing, or holds the grant reply
// and will finish the install without further protocol traffic.
func (e *engine) granteeDelivered(req *pageRequest) bool {
	o, ok := e.m.nodes[req.node].outstanding[req.token]
	return ok && o.granted()
}

// ---------------------------------------------------------------------------
// The home side.

// openServe creates node's record for token. t, if the grant window is to be
// open from the start (a prefetch batch), is the task that will wait in it.
func (e *engine) openServe(t *sim.Task, node int, token uint64, req *pageRequest) *serveState {
	st := &serveState{waiter: waiter{task: t}, req: req, home: node, reply: pageReply{pid: e.m.pid, token: token}}
	e.m.nodes[node].served[token] = st
	return st
}

// admitServe is the home-side dedup gate for a page request delivered at
// node. It returns the fresh serve record to thread through the transaction,
// or nil if the request was a duplicate and has been dealt with here.
func (e *engine) admitServe(node int, req *pageRequest) *serveState {
	m := e.m
	if prev, ok := m.nodes[node].served[req.token]; ok {
		e.redeliverServe(prev)
		return nil
	}
	if req.token < e.prunedReqBelow[req.node] {
		// The record was pruned: the transaction closed long before the last
		// sweep, so this can only be a stale duplicate.
		m.stats.DupsIgnored++
		return nil
	}
	e.admitted(node)
	return e.openServe(nil, node, req.token, req)
}

// redeliverServe answers a duplicated page request from the home-side serve
// record. A bounced request gets the reply it was sent again; in-flight or
// granted requests are ignored, because the serving task's grant window owns
// grant retransmission. Crucially a duplicate is never served fresh: the
// requester may have released its landing zone after the first outcome.
func (e *engine) redeliverServe(st *serveState) {
	m := e.m
	if !st.closed || !st.reply.outcome.bounced() {
		m.stats.DupsIgnored++
		return
	}
	m.stats.Retransmits++
	// Duplicates are delivered at the node that served the original (always
	// the origin under WriteInvalidate; HomeMigrate runs serialized).
	m.mark(st.home, "dedup.reserve", st.req.vpn)
	e.replyAfter("dsm-resend", st.home, st.req.node, &st.reply)
}

// bounce answers st's request with something other than a grant and closes
// the record; it returns the reply for the caller to send.
func (e *engine) bounce(st *serveState, out outcome, home int, epoch uint64, now time.Duration) *pageReply {
	st.reply.outcome, st.reply.home, st.reply.epoch = out, home, epoch
	e.closeServe(st, now)
	return &st.reply
}

// closeServe marks the serve over (a no-op on a record a bounce closed
// already). Without an injector nothing can ask for the record again.
func (e *engine) closeServe(st *serveState, now time.Duration) {
	if st.closed {
		return
	}
	st.closed, st.closedAt = true, now
	if e.m.chaos == nil {
		delete(e.m.nodes[st.home].served, st.reply.token)
	}
}

// grant answers st's request with ownership at epoch — and data, unless the
// requester's copy is fresh (nil) — and opens the grant window.
func (e *engine) grant(t *sim.Task, st *serveState, data []byte, epoch uint64) {
	st.reply.outcome, st.reply.epoch = grant, epoch
	if data != nil {
		st.reply.outcome = grantData
		if e.m.chaos != nil {
			// Retain a snapshot so the grant can be re-sent if it is lost.
			st.data = append([]byte(nil), data...)
		}
	}
	st.task = t // before the send: the ack must find the window open
	e.sendGrant(t, st, data)
}

// sendGrant sends st's grant reply, with data if the grant carries any.
func (e *engine) sendGrant(t *sim.Task, st *serveState, data []byte) {
	m, req := e.m, st.req
	if st.reply.outcome == grantData {
		m.net.SendPageBuf(t, st.home, req.node, req.pr, data, &st.reply, m.pool(st.home).Get())
	} else {
		m.net.Send(t, st.home, req.node, &st.reply)
	}
}

// awaitInstall parks the serving task until the requester acknowledges its
// PTE install, re-sending the grant from the retained snapshot. It returns how
// the window closed: the grant's own outcome once installed; rolledBack if the
// requester is confirmed dead (the half-finished transfer is undone so the
// page stays reachable); deadHome if the serving home died — the caller settles.
func (e *engine) awaitInstall(t *sim.Task, st *serveState, de *dirEntry) outcome {
	m := e.m
	out := st.reply.outcome
	e.await(t, &st.waiter, sim.ReasonHex("install ack ", st.reply.token), st.home, "grant",
		func() bool {
			switch {
			case m.dead(st.req.node):
				e.rollbackGrant(st, de)
				out = rolledBack
			case st.home != m.origin && m.dead(st.home):
				out = deadHome
			default:
				return false
			}
			return true
		},
		func() { e.sendGrant(t, st, st.data) })
	return out
}

// installAcked closes the grant window an install ack names, at the serving
// home the ack was addressed to.
func (e *engine) installAcked(node int, token uint64) {
	if st := e.m.nodes[node].served[token]; st == nil || !st.ack() {
		e.stray("install ack token", token)
	}
}

// rollbackGrant undoes a grant whose requester died before acknowledging
// its PTE install. The directory still holds the entry busy, so no other
// transaction can have observed the half-finished transfer. For a write
// grant that carried data the serving home restores its copy from the
// retained snapshot; for an ownership-only write grant the requester's copy
// was the only fresh one, so the page is lost and comes back zero-filled.
func (e *engine) rollbackGrant(st *serveState, de *dirEntry) {
	m, req := e.m, st.req
	if !req.write {
		de.dropOwner(req.node)
		return
	}
	if st.data != nil {
		home := de.home
		de.reclaimHome()
		f := m.pool(home).Get()
		copy(f, st.data)
		m.nodes[home].pt.SetAccess(req.vpn, f, mem.AccessRead)
		return
	}
	m.reclaimLostWriter(de, req.vpn)
}

// ---------------------------------------------------------------------------
// Revocations.

// sendRevoke revokes (or downgrades) target's copy of vpn on behalf of the
// serving home from, and returns the record of the wait for its ack. newHome
// and newEpoch are the routing hint the revocation carries (-1: none); pr,
// when set, is where the target must ship its copy.
func (e *engine) sendRevoke(t *sim.Task, from, target int, vpn uint64, downgrade bool, newHome int, newEpoch uint64, pr *fabric.PageRecv) *revokeWaiter {
	m := e.m
	ns := m.nodes[from]
	msg := &revokeMsg{
		pid:       m.pid,
		vpn:       vpn,
		seq:       nextSeq(from, &ns.revCtr),
		downgrade: downgrade,
		needData:  pr != nil,
		home:      from,
		newHome:   newHome,
		newEpoch:  newEpoch,
		pr:        pr,
	}
	w := &revokeWaiter{waiter: waiter{task: t}, target: target, msg: msg}
	ns.revokeWait[msg.seq] = w
	m.net.Send(t, from, target, msg)
	if downgrade {
		m.stats.Downgrades++
	} else {
		m.stats.Invalidations++
	}
	return w
}

// waitRevokes parks the serving task until every revocation in acks is
// acknowledged. A revocation or its ack may have been lost: it is re-sent,
// and the wait abandoned if the target is confirmed dead (its copy died with
// it) or the issuing home is.
func (e *engine) waitRevokes(t *sim.Task, acks []*revokeWaiter) {
	m := e.m
	for _, w := range acks {
		msg := w.msg
		// The revoke-waiting task runs on the issuing home's lane.
		e.await(t, &w.waiter, sim.ReasonHex("revoke ack ", msg.vpn<<mem.PageShift), msg.home, "revoke",
			func() bool {
				switch {
				case m.dead(w.target):
					w.lost = msg.needData
				case msg.home != m.origin && m.dead(msg.home):
					// The issuing home itself died mid-serve: every ack sent to
					// it is dropped, so stop retransmitting. Deliver the
					// revocation's effect directly — the fabric would drop the
					// real message (its source is dead), and no stale replica
					// may outlive the dead home's last transaction.
					if e.admitRevoke(w.target, msg) {
						m.applyRevokeAdmitted(w.target, msg)
					}
				default:
					return false
				}
				delete(m.nodes[msg.home].revokeWait, msg.seq)
				return true
			},
			func() { m.net.Send(t, msg.home, w.target, msg) })
	}
}

// revokeAcked closes the wait a revoke ack names. Revocations are issued
// from (and acked to) the serving home, whose lane is running right now.
func (e *engine) revokeAcked(node int, seq uint64) {
	ws := e.m.nodes[node].revokeWait
	if w := ws[seq]; w == nil || !w.ack() {
		e.stray("revoke ack seq", seq)
	}
	delete(ws, seq)
}

// admitRevoke is the receiver-side dedup gate for an incoming revocation
// under fault injection. It reports whether the revocation is fresh and
// should be applied.
func (e *engine) admitRevoke(node int, msg *revokeMsg) bool {
	m := e.m
	if m.chaos == nil {
		return true
	}
	ns := m.nodes[node]
	if prev, ok := ns.appliedRevokes[msg.seq]; ok {
		if prev.pending {
			// The original is still being applied (or deferred); its ack
			// will cover this duplicate.
			m.stats.DupsIgnored++
		} else {
			// Already applied: the ack must have been lost. Re-ack from
			// the retained snapshot.
			e.resendRevokeAck(node, msg, prev)
		}
		return false
	}
	if msg.seq < e.prunedRevokeBelow[tokenNode(msg.seq)] {
		m.stats.DupsIgnored++
		return false
	}
	ns.appliedRevokes[msg.seq] = &appliedRevoke{pending: true}
	e.admitted(node)
	return true
}

// revokeApplied closes the receiver-side record of msg once it is applied and
// acked, keeping the page contents of a needData revoke so a re-sent one (our
// ack was lost) gets the same data. dropped says the application orphaned
// frame; it reports whether the record took it over (else the caller recycles).
func (e *engine) revokeApplied(ns *nodeState, msg *revokeMsg, frame []byte, dropped bool, now time.Duration) (retained bool) {
	if e.m.chaos == nil {
		return false
	}
	rec := ns.appliedRevokes[msg.seq]
	rec.pending, rec.appliedAt = false, now
	if msg.needData {
		if !dropped {
			frame = append([]byte(nil), frame...)
		}
		rec.data = frame
	}
	return msg.needData && dropped
}

// sendRevokeAck acknowledges msg from node, shipping data with the ack if the
// revocation asked for the page.
func (m *Manager) sendRevokeAck(t *sim.Task, node int, msg *revokeMsg, data []byte) {
	ack := &revokeAck{pid: m.pid, seq: msg.seq}
	if msg.needData {
		m.net.SendPageBuf(t, node, msg.home, msg.pr, data, ack, m.pool(node).Get())
	} else {
		m.net.Send(t, node, msg.home, ack)
	}
}

// resendRevokeAck answers a duplicated revocation whose original was fully
// applied: the ack (and, for needData revokes, the retained page snapshot)
// is simply sent again.
func (e *engine) resendRevokeAck(node int, msg *revokeMsg, prev *appliedRevoke) {
	m := e.m
	m.stats.Retransmits++
	m.mark(node, "dedup.reack", msg.vpn)
	m.view(node).Spawn("dsm-reack", func(t *sim.Task) {
		t.Sleep(m.params.InvalidateApply)
		m.sendRevokeAck(t, node, msg, prev.data)
	})
}

// ---------------------------------------------------------------------------
// Bounding the dedup state.

// admitted notes one dedup admission on node's lane and, once the node's
// budget is spent, schedules a watermark sweep. The sweep runs as a
// global-lane event rather than inline: it reads every node's outstanding
// tables, which only the serialized global lane may do while node lanes run
// their own windows. Scheduling through the admitting node's own lane view
// keeps the sweep's (time, lane) a function of that lane alone — each lane's
// admission counter is a pure function of that lane's event sequence.
func (e *engine) admitted(node int) {
	ns := e.m.nodes[node]
	if e.m.chaos == nil {
		return // nothing is kept past its transaction, so nothing to sweep
	}
	ns.sweepBudget--
	if ns.sweepBudget > 0 {
		return
	}
	ns.sweepBudget = dedupSweepInterval
	v := e.m.view(node)
	v.AfterOn(sim.GlobalLane, max(dedupSweepDelay, v.Lookahead()), e.sweep)
}

// sweep bounds the chaos dedup maps. A record may be dropped once two
// conditions hold: (1) its token/seq is below the open-transaction floor of
// its allocating node — no in-flight transaction still references it, so
// only duplicates of a closed exchange can ever carry it again — and (2) it
// has been closed for longer than the retransmit horizon, so the sender's
// own RTO loop has long stopped producing retransmissions (only
// fabric-duplicated stragglers remain, and those are answered from the
// watermark). Advancing the watermark to the floor is what keeps
// correctness unconditional: even a straggler older than the horizon is
// still *detected* as a duplicate, it just no longer gets a
// content-carrying re-ack (it no longer needs one — its transaction
// closed). It runs on the global lane (see admitted).
func (e *engine) sweep() {
	m := e.m
	now := m.eng.Now()
	horizon := time.Duration(dedupHorizonFactor) * m.params.RetryTimeoutMax

	// Request-token side: each node's floor is the smallest of its tokens
	// still referenced by an outstanding request there or by an open
	// home-side serve anywhere.
	floors := make([]uint64, len(m.nodes))
	for i, ns := range m.nodes {
		floors[i] = uint64(i)<<tokenNodeShift | (ns.reqCtr + 1)
		for tok, o := range ns.outstanding {
			if !o.installed {
				floors[i] = min(floors[i], tok)
			}
		}
	}
	for _, hs := range m.nodes {
		for tok, st := range hs.served {
			if n := tokenNode(tok); !st.closed {
				floors[n] = min(floors[n], tok)
			}
		}
	}
	for i, ns := range m.nodes {
		for tok, st := range ns.served {
			if st.closed && tok < floors[tokenNode(tok)] && now-st.closedAt >= horizon {
				delete(ns.served, tok)
			}
		}
		for tok, o := range ns.outstanding {
			if o.installed && tok < floors[i] && now-o.installedAt >= horizon {
				delete(ns.outstanding, tok)
			}
		}
		e.prunedReqBelow[i] = max(e.prunedReqBelow[i], floors[i])
	}

	// Revocation side: each issuer's floor is the smallest of its seqs with
	// an open waiter (waiters live at the issuing home).
	rfloors := make([]uint64, len(m.nodes))
	for i, ns := range m.nodes {
		rfloors[i] = uint64(i)<<tokenNodeShift | (ns.revCtr + 1)
		for seq := range ns.revokeWait {
			rfloors[i] = min(rfloors[i], seq)
		}
	}
	for i, ns := range m.nodes {
		for seq, rec := range ns.appliedRevokes {
			if seq < rfloors[tokenNode(seq)] && !rec.pending && now-rec.appliedAt >= horizon {
				delete(ns.appliedRevokes, seq)
			}
		}
		e.prunedRevokeBelow[i] = max(e.prunedRevokeBelow[i], rfloors[i])
	}
}
