// engine.go is the transport engine of the protocol: token and sequence
// allocation, retransmission timers (RTO with exponential backoff), receiver
// and server-side duplicate detection with bounded dedup state, and rollback
// of half-finished grants. It guarantees exactly-once *application* of
// protocol messages over a fabric that — under fault injection — may drop,
// duplicate, or delay them; the policies (protocol.go) and the directory
// (directory.go) never see transport failures.
package dsm

import (
	"time"

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

// engine owns the transport-layer state of one Manager. All per-message
// bookkeeping (sequence allocators, open waiters, dedup records) is sharded
// per node and lives in nodeState: revocations and grants are only ever
// issued from the serving home's own simulation lane, and sharding the
// state by issuer lets several directory shards serve independently under
// DistributedManager without a shared counter or map. The engine itself
// keeps only the sweep watermarks, which are written exclusively on the
// serialized global lane.
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
		ns.revokeWait = make(map[uint64]*revokeWaiter)
		ns.installWait = make(map[uint64]*revokeWaiter)
		if m.chaos != nil {
			ns.served = make(map[uint64]*serveState)
		}
	}
}

// retransmitSpan records one retransmission on the executing lane. The span
// covers the expired RTO window that triggered the re-send; kind names the
// retransmitted message (request, revoke, grant), attempt counts re-sends of
// this transaction, and backoff is the timeout that was waited out.
func (m *Manager) retransmitSpan(lane int, kind string, attempt int, rto time.Duration) {
	if m.rec == nil {
		return
	}
	rec := m.rec.OnLane(lane)
	now := rec.Now()
	rec.SpanAt("dsm", "retransmit", lane, -1, now-rto, rto,
		obs.String("kind", kind),
		obs.Int("attempt", int64(attempt)),
		obs.String("backoff", rto.String()))
}

// dedupSpan records an instant marker for a duplicate that was answered from
// retained dedup state, on the lane the duplicate was delivered to.
func (m *Manager) dedupSpan(lane int, name string, vpn uint64) {
	if m.rec == nil {
		return
	}
	rec := m.rec.OnLane(lane)
	rec.SpanAt("dsm", name, lane, -1, rec.Now(), 0, obs.Hex("vpn", vpn))
}

// nextToken allocates a page-request token from node's private space.
func (e *engine) nextToken(node int) uint64 {
	ns := e.m.nodes[node]
	ns.reqCtr++
	return uint64(node)<<tokenNodeShift | ns.reqCtr
}

// nextRevokeSeq allocates a revocation sequence number from the issuing
// node's private space. Like request tokens, the issuer rides in the top
// bits so each serving home allocates monotonically on its own lane.
func (e *engine) nextRevokeSeq(node int) uint64 {
	ns := e.m.nodes[node]
	ns.revCtr++
	return uint64(node)<<tokenNodeShift | ns.revCtr
}

// awaitReply parks the requester until its outstanding request is answered.
// Under fault injection the request or its reply may have been dropped, so
// the (idempotent, token-deduplicated) request is re-sent to target after
// each retry timeout, with exponential backoff.
func (e *engine) awaitReply(t *sim.Task, node, target int, req *outstanding, msg *pageRequest) {
	m := e.m
	parkReason := sim.ReasonHex("page reply ", req.vpn<<mem.PageShift)
	if m.chaos == nil {
		for !req.done {
			t.ParkOn(parkReason)
		}
		return
	}
	rto := m.params.RetryTimeout
	attempt := 0
	for !req.done {
		if t.ParkOnTimeout(parkReason, rto) || req.done {
			continue
		}
		if target != m.origin && m.chaos.NodeDead(target) {
			// The believed home died with the request (or its reply) in
			// flight: abandon the wait; the caller re-routes via the origin.
			req.done = true
			req.deadHome = true
			break
		}
		m.stats.Retransmits++
		attempt++
		m.retransmitSpan(node, "request", attempt, rto)
		m.net.Send(t, node, target, msg)
		if rto *= 2; rto > m.params.RetryTimeoutMax {
			rto = m.params.RetryTimeoutMax
		}
	}
}

// waitRevokes parks the serving task until every revocation in acks is
// acknowledged. Under fault injection a revocation or its ack may have been
// dropped: re-send after each retry timeout, and abandon the waiter if the
// target is confirmed dead (its copy died with it).
func (e *engine) waitRevokes(t *sim.Task, acks []*revokeWaiter) {
	m := e.m
	for _, w := range acks {
		if m.chaos == nil || w.msg == nil {
			for !w.done {
				t.Park("revoke ack")
			}
			continue
		}
		rto := m.params.RetryTimeout
		attempt := 0
		for !w.done {
			if t.ParkTimeout("revoke ack", rto) || w.done {
				continue
			}
			if m.chaos.NodeDead(w.target) {
				delete(m.nodes[w.msg.home].revokeWait, w.msg.seq)
				w.done = true
				w.lost = w.msg.needData
				break
			}
			if w.msg.home != m.origin && m.chaos.NodeDead(w.msg.home) {
				// The issuing home itself died mid-serve: every ack sent to
				// it is dropped, so stop retransmitting. Deliver the
				// revocation's effect directly — the fabric would drop the
				// real message (its source is dead), and no stale replica
				// may outlive the dead home's last transaction.
				delete(m.nodes[w.msg.home].revokeWait, w.msg.seq)
				w.done = true
				if e.admitRevoke(w.target, w.msg) {
					m.applyRevokeAdmitted(w.target, w.msg)
				}
				break
			}
			m.stats.Retransmits++
			attempt++
			// The revoke-waiting task runs on the issuing home's lane.
			m.retransmitSpan(w.msg.home, "revoke", attempt, rto)
			m.net.Send(t, w.msg.home, w.target, w.msg)
			if rto *= 2; rto > m.params.RetryTimeoutMax {
				rto = m.params.RetryTimeoutMax
			}
		}
	}
}

// admitServe is the home-side dedup gate for an incoming page request under
// fault injection. It returns the fresh serve record to thread through the
// transaction, or handled=true if the request was a duplicate and has been
// fully dealt with here. node is the serving node (whose lane is running).
func (e *engine) admitServe(node int, req *pageRequest) (st *serveState, handled bool) {
	m := e.m
	ns := m.nodes[node]
	if prev, ok := ns.served[req.token]; ok {
		e.redeliverServe(req, prev)
		return nil, true
	}
	if req.token < e.prunedReqBelow[req.node] {
		// The record was pruned: the transaction closed long before the last
		// sweep, so this can only be a stale duplicate.
		m.stats.DupsIgnored++
		return nil, true
	}
	st = &serveState{req: req, write: req.write, home: node}
	ns.served[req.token] = st
	e.admitted(node)
	return st, false
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

// noteInstalled records a completed grant install at the requester (and the
// node that served it) so a duplicated grant reply re-acks the serving home
// instead of re-running the install.
func (e *engine) noteInstalled(ns *nodeState, token uint64, home int, now time.Duration) {
	if e.m.chaos != nil {
		ns.completed[token] = completedGrant{at: now, home: home}
	}
}

// admitted notes one dedup admission on node's lane and, once the node's
// budget is spent, schedules a watermark sweep. The sweep runs as a
// global-lane event rather than inline: it reads every node's outstanding
// tables, which only the serialized global lane may do while node lanes run
// their own windows. Scheduling through the admitting node's own lane view
// keeps the sweep's (time, lane) a function of that lane alone — each lane's
// admission counter is a pure function of that lane's event sequence.
func (e *engine) admitted(node int) {
	ns := e.m.nodes[node]
	ns.sweepBudget--
	if ns.sweepBudget > 0 {
		return
	}
	ns.sweepBudget = dedupSweepInterval
	v := e.m.view(node)
	d := dedupSweepDelay
	if la := v.Lookahead(); la > d {
		d = la
	}
	v.AfterOn(sim.GlobalLane, d, e.sweep)
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
		for tok := range ns.outstanding {
			if tok < floors[i] {
				floors[i] = tok
			}
		}
	}
	for _, hs := range m.nodes {
		for tok, st := range hs.served {
			if n := tokenNode(tok); !st.closed && tok < floors[n] {
				floors[n] = tok
			}
		}
	}
	for _, hs := range m.nodes {
		for tok, st := range hs.served {
			if st.closed && tok < floors[tokenNode(tok)] && now-st.closedAt >= horizon {
				delete(hs.served, tok)
			}
		}
	}
	for _, ns := range m.nodes {
		for tok, cg := range ns.completed {
			if tok < floors[tokenNode(tok)] && now-cg.at >= horizon {
				delete(ns.completed, tok)
			}
		}
	}
	for i, f := range floors {
		if f > e.prunedReqBelow[i] {
			e.prunedReqBelow[i] = f
		}
	}

	// Revocation side: each issuer's floor is the smallest of its seqs with
	// an open waiter (waiters live at the issuing home).
	rfloors := make([]uint64, len(m.nodes))
	for i, ns := range m.nodes {
		rfloors[i] = uint64(i)<<tokenNodeShift | (ns.revCtr + 1)
		for seq := range ns.revokeWait {
			if seq < rfloors[i] {
				rfloors[i] = seq
			}
		}
	}
	for _, ns := range m.nodes {
		for seq, rec := range ns.appliedRevokes {
			if seq < rfloors[tokenNode(seq)] && !rec.pending && now-rec.appliedAt >= horizon {
				delete(ns.appliedRevokes, seq)
			}
		}
	}
	for i, f := range rfloors {
		if f > e.prunedRevokeBelow[i] {
			e.prunedRevokeBelow[i] = f
		}
	}
}

// redeliverServe answers a duplicated page request from the home-side serve
// record. Bounced requests (nack/stale/redirect) get the same bounce again;
// in-flight or granted requests are ignored, because the serving task's
// install-wait loop owns grant retransmission. Crucially a duplicate is
// never served fresh: the requester may have released its landing zone
// after the first outcome.
func (e *engine) redeliverServe(req *pageRequest, st *serveState) {
	m := e.m
	if !st.closed || (!st.nack && !st.stale && !st.redirect) {
		m.stats.DupsIgnored++
		return
	}
	m.stats.Retransmits++
	// Duplicates are delivered at the node that served the original (always
	// the origin under WriteInvalidate; HomeMigrate runs serialized).
	m.dedupSpan(st.home, "dedup.reserve", req.vpn)
	reply := &pageReply{pid: m.pid, token: req.token, nack: st.nack, stale: st.stale,
		redirect: st.redirect, home: st.redirTo}
	from := st.home
	m.view(from).Spawn("dsm-resend", func(t *sim.Task) {
		t.Sleep(m.params.OriginDispatch)
		m.net.Send(t, from, req.node, reply)
	})
}

// resendGrant re-sends a grant reply (and its page data, from the retained
// snapshot) whose first copy — or whose install ack — was lost.
func (e *engine) resendGrant(t *sim.Task, st *serveState) {
	m := e.m
	req := st.req
	reply := &pageReply{pid: m.pid, token: req.token, withData: st.withData}
	if st.withData {
		m.net.SendPageBuf(t, st.home, req.node, req.pr, st.data, reply, m.pool(st.home).Get())
	} else {
		m.net.Send(t, st.home, req.node, reply)
	}
}

// resendRevokeAck answers a duplicated revocation whose original was fully
// applied: the ack (and, for needData revokes, the retained page snapshot)
// is simply sent again.
func (e *engine) resendRevokeAck(node int, msg *revokeMsg, prev *appliedRevoke) {
	m := e.m
	m.stats.Retransmits++
	m.dedupSpan(node, "dedup.reack", msg.vpn)
	m.view(node).Spawn("dsm-reack", func(t *sim.Task) {
		t.Sleep(m.params.InvalidateApply)
		ack := &revokeAck{pid: m.pid, seq: msg.seq}
		if msg.needData {
			m.net.SendPageBuf(t, node, msg.home, msg.pr, prev.data, ack, m.pool(node).Get())
		} else {
			m.net.Send(t, node, msg.home, ack)
		}
	})
}

// rollbackGrant undoes a grant whose requester died before acknowledging
// its PTE install. The directory still holds the entry busy, so no other
// transaction can have observed the half-finished transfer. For a write
// grant that carried data the serving home restores its copy from the
// retained snapshot; for an ownership-only write grant the requester's copy
// was the only fresh one, so the page is lost and comes back zero-filled.
func (e *engine) rollbackGrant(req *pageRequest, st *serveState, de *dirEntry) {
	m := e.m
	if !req.write {
		de.dropOwner(req.node)
		return
	}
	if st.withData && st.data != nil {
		home := de.home
		de.reclaimHome()
		f := m.pool(home).Get()
		copy(f, st.data)
		m.nodes[home].pt.SetAccess(req.vpn, f, mem.AccessRead)
		return
	}
	m.reclaimLostWriter(de, req.vpn)
}

// installingFor returns the outstanding request at ns that has been granted
// ownership of vpn but has not yet installed its PTE, if any. Tokens are
// scanned in ascending order for determinism (all of one node's tokens
// share the node prefix, so the suffix counter orders them).
func (e *engine) installingFor(ns *nodeState, vpn uint64) *outstanding {
	var best *outstanding
	var bestToken uint64
	for token, o := range ns.outstanding {
		if o.vpn == vpn && o.done && !o.nack && !o.stale && !o.installed {
			if best == nil || token < bestToken {
				best = o
				bestToken = token
			}
		}
	}
	return best
}
