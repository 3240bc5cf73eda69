// engine.go is the transport engine of the protocol, and the only file in the
// package that knows a message can be lost, duplicated or answered twice. It
// owns the transaction records (outstanding at the requester, serveState at
// the home) and every write to them, token and sequence allocation, the one
// wait loop (RTO, exponential backoff, give-up) and duplicate detection. It
// guarantees exactly-once *application* of protocol messages over a fabric
// that — under fault injection — may drop, duplicate, or delay them; the
// policies (protocol.go) and the directory (directory.go) never see transport
// failures.
//
// Dedup state is bounded as an RC queue pair bounds its own, by cumulative
// acknowledgement: a node's floor, its lowest still-open token or seq, rides
// on the requests, revocations and replies it sends anyway, and a record
// another node keeps for its numbers goes once the floor passes it.
//
// Records are recycled under one rule: a record's holders are its task, each
// window that lists it, each record and spawned closure that points into it,
// and each fabric flight that carries its message or lands in its landing
// zone (fabric.Held); the last puts it back on its free list (recycler), and a
// hold never released only leaks the record.
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

// tokenNodeShift positions the allocating node in a request token's top
// bits: every node allocates from a private, monotonic token space on its
// own simulation lane, with no shared counter. Floor comparisons only ever
// relate tokens of the same node, where the suffix counter makes them
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
// moves, marked installed, to the serving home's peer window until that
// home's floor passes it, so a duplicated grant reply re-acks the home
// instead of re-running the install. It also serializes revocations that
// target the ownership being granted: a revoke arriving between the grant
// reply and the PTE install is deferred until the install completes. Its
// messages and landing zone live in it: a request costs the record alone.
type outstanding struct {
	waiter
	m         *Manager
	home      int              // the node the request went to (the re-ack target)
	req       pageRequest      // the request, re-sent until it is answered, and sent back as its install ack
	pr        fabric.PageRecv  // the landing zone req names
	reply     pageReply        // as received (inFlight until then); a dead-home of the engine's own making if it abandoned the wait
	installed bool             // the granted PTE is in place
	holders   int16            // recycler
	deferred  []*appliedRevoke // revocations to apply once it is
}

// granted reports whether o holds a grant: installed, or about to be without
// further protocol traffic. A bounce in any spelling is none.
func (o *outstanding) granted() bool { return o.reply.outcome.granted() }

// serveState is the home-side record of one page request: the reply that was
// sent and, embedded, the grant window's wait for the install ack. Without an
// injector it is dropped when the serve closes. With one it stays until the
// requester's floor passes it and resolves duplicated requests: a bounced
// request gets the same reply again — never a fresh serve, which could land
// data in a landing zone the requester has already released — and one in
// flight or granted is ignored, because the grant window owns grant
// retransmission. It is the body of its own task, run (messages.go).
type serveState struct {
	waiter
	run     sim.Task
	m       *Manager
	req     *pageRequest // the request served, in the requester's record
	home    int          // the node that served (or bounced) this token
	reply   pageReply    // the reply sent; outcome inFlight until there is one
	closed  bool         // the serving task has finished with this token
	holders int16        // recycler
	data    []byte       // a reference to the page the grant carried, for re-sends (injector only), until closed
}

// revokeWaiter is the issuing home's record of one revocation in flight, and
// of the revocation it sends and re-sends, which its ack comes back as
// (revokeAck). lost reports that the wait was abandoned because the target
// died; for a needData revoke the caller must then treat the page contents as
// lost.
type revokeWaiter struct {
	waiter
	m       *Manager
	target  int32 // the node revoked; beside lost, it costs no word
	lost    bool
	holders int16 // recycler
	msg     revokeMsg
}

// pull is the record of a needData revocation, which names it (revokeMsg.pull):
// the target's copy comes into the landing zone it carries.
type pull struct {
	revokeWaiter
	pr fabric.PageRecv
}

// appliedRevoke is the receiver-side record of one admitted revocation and
// the body of the task run that applies it (before the task starts, the
// install it waits behind holds the task's hold). Under an injector it stays
// in the issuer's window for duplicates.
type appliedRevoke struct {
	run     sim.Task
	m       *Manager
	msg     *revokeMsg // the revocation applied, in the issuer's record
	node    int32      // where msg is applied; beside pending, it costs no word
	pending bool       // the original application has not finished yet
	holders int16      // recycler
	data    []byte     // a reference to the page a needData revocation shipped, for re-acks, until a floor trims r
}

func (o *outstanding) String() string   { return fmt.Sprintf("request %#x", o.req.token) }
func (st *serveState) String() string   { return fmt.Sprintf("serve of request %#x", st.reply.token) }
func (w *revokeWaiter) String() string  { return fmt.Sprintf("revocation %#x", w.msg.seq) }
func (r *appliedRevoke) String() string { return fmt.Sprintf("revocation applied at node %d", r.node) }

func (o *outstanding) held() *int16   { return &o.holders }
func (st *serveState) held() *int16   { return &st.holders }
func (w *revokeWaiter) held() *int16  { return &w.holders }
func (r *appliedRevoke) held() *int16 { return &r.holders }

// release lets go of one hold; the last puts the record back, and lets go of
// the record it points into.
func (o *outstanding) release() { o.m.e.requests.release(o) }

func (st *serveState) release() {
	if st.m.e.serves.release(st) {
		st.req.o.release()
	}
}

func (w *revokeWaiter) release() {
	if p := w.msg.pull; p != nil {
		w.m.e.pulls.release(p)
	} else {
		w.m.e.waits.release(w)
	}
}

func (r *appliedRevoke) release() {
	if r.m.e.applied.release(r) {
		r.msg.w.release()
	}
}

// Finished lets go of the task's hold once the engine is done with it.
func (st *serveState) Finished()   { st.release() }
func (r *appliedRevoke) Finished() { r.release() }

// holdable is a record that counts its holders and names itself in a panic.
type holdable interface {
	fmt.Stringer
	held() *int16
}

// recyclable is a transaction record with a free list.
type recyclable[T any] interface {
	*T
	holdable
}

// hold adds a holder to r; holding a record back on its free list panics.
func hold(r holdable) {
	h := r.held()
	if *h <= 0 {
		panic(fmt.Sprintf("dsm: %v held after release", r))
	}
	*h++
}

// recycler is the free list of one record type, one per Manager as the fabric
// has one for its flights. One goroutine runs a simulation, so a record may be
// taken on one lane and put back on another without a lock. made counts the
// records ever allocated.
type recycler[T any, P recyclable[T]] struct {
	free []P
	made int
}

// take returns a zeroed record, off the free list or new, held by the caller.
func (rc *recycler[T, P]) take() P {
	var r P
	if k := len(rc.free) - 1; k >= 0 {
		r, rc.free = rc.free[k], rc.free[:k]
		var zero T
		*r = zero
	} else {
		r = new(T)
		rc.made++
	}
	*r.held() = 1
	return r
}

// release lets go of one holder's hold on r and reports whether it was the
// last, which puts r back on the free list. Releasing a record that no holder
// holds panics, naming it.
func (rc *recycler[T, P]) release(r P) bool {
	h := r.held()
	if *h <= 0 {
		panic(fmt.Sprintf("dsm: %v released twice", r))
	}
	if *h--; *h > 0 {
		return false
	}
	rc.free = append(rc.free, r)
	return true
}

// over reports whether a record's transaction is over at the node that holds
// it: what a window may drop once the record is below its issuer's floor.
func (o *outstanding) over() bool   { return o.installed }
func (st *serveState) over() bool   { return st.closed }
func (w *revokeWaiter) over() bool  { return w.task == nil }
func (r *appliedRevoke) over() bool { return !r.pending }

// record is what a window holds, and counts among its holders: a transaction
// record that knows when it is over, and lets go of what it holds once trimmed.
type record interface {
	comparable
	holdable
	over() bool
	trimmed()
	release()
}

func (*outstanding) trimmed()  {}
func (*serveState) trimmed()   {}
func (*revokeWaiter) trimmed() {}

// trimmed releases r's re-ack page: its issuer re-sends no revocation below
// its floor, so nothing asks for the page again.
func (r *appliedRevoke) trimmed() {
	r.m.freeFrame(r.data)
	r.data = nil
}

// window holds the records of one issuer's sequence numbers (its request
// tokens or its revoke seqs, allocated monotonically by nextSeq) from base
// up: recs[i] is the record of base+i, the zero value where there is none.
// Records leave from the head, so finding and dropping one is never a scan.
type window[T record] struct {
	base uint64
	recs []T
}

func (w *window[T]) get(seq uint64) (r T) {
	if seq >= w.base && seq-w.base < uint64(len(w.recs)) {
		r = w.recs[seq-w.base]
	}
	return r
}

// put records r under seq, and holds it. The first record of an empty window
// sets its base; one below the base (an issuer's sends may overtake each
// other) moves it down.
func (w *window[T]) put(seq uint64, r T) {
	hold(r)
	if len(w.recs) == 0 {
		w.base = seq
	} else if seq < w.base {
		w.recs = slices.Insert(w.recs, 0, make([]T, w.base-seq)...)
		w.base = seq
	}
	for seq-w.base >= uint64(len(w.recs)) {
		var none T
		w.recs = append(w.recs, none)
	}
	w.recs[seq-w.base] = r
}

// del drops seq's record and lets go of it.
func (w *window[T]) del(seq uint64) {
	var none T
	if r := w.get(seq); r != none {
		w.recs[seq-w.base] = none
		r.release()
		w.trim(0)
	}
}

// trim drops the head while it is empty, or over and below floor, moving
// the rest down so the window reuses its array; a record it drops is told and
// let go of. Of a window of a node's own open records, which are dropped as
// they close, the base is then the node's floor.
func (w *window[T]) trim(floor uint64) {
	var none T
	n := 0
	for n < len(w.recs) && (w.recs[n] == none || w.base+uint64(n) < floor && w.recs[n].over()) {
		if r := w.recs[n]; r != none {
			r.trimmed()
			r.release()
		}
		n++
	}
	w.recs, w.base = slices.Delete(w.recs, 0, n), w.base+uint64(n)
}

// hear raises a floor heard from a peer to f, as the message carrying it is
// taken off the wire, and drops what the window it bounds no longer needs.
func hear[T record](floor *uint64, f uint64, w *window[T]) {
	if f > *floor {
		*floor = f
		w.trim(f)
	}
}

// peer is what a node keeps of another node's numbers, touched only on its
// own lane: the records it holds for them, and the highest floor of each kind
// heard from it — reqFloor on its requests bounds served, revFloor on its
// revocations applied, serveFloor on its replies installed.
type peer struct {
	served    window[*serveState]    // its requests, served here
	applied   window[*appliedRevoke] // its revocations, applied here (injector only)
	installed window[*outstanding]   // this node's requests it served, installed here (injector only)

	reqFloor, revFloor, serveFloor uint64
}

// engine is the transport layer of one Manager. Its state — sequence
// allocators, transaction records, heard floors — is sharded per node in
// nodeState, so directory shards serve independently on their lanes; the
// free lists serve them all.
type engine struct {
	m        *Manager
	requests recycler[outstanding, *outstanding]
	serves   recycler[serveState, *serveState]
	waits    recycler[revokeWaiter, *revokeWaiter]
	pulls    recycler[pull, *pull]
	applied  recycler[appliedRevoke, *appliedRevoke]
	hints    recycler[homeHintMsg, *homeHintMsg]
}

// dead reports whether node n is confirmed dead (the origin never is; without an injector none is).
func (m *Manager) dead(n int) bool { return n != m.origin && m.chaos != nil && m.chaos.NodeDead(n) }

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

// floor is what a message built now carries: base, the issuer's floor, under
// an injector; without one nothing outlives its transaction, so there is
// nothing to release and nothing is written.
func (e *engine) floor(base uint64) uint64 {
	if e.m.chaos == nil {
		return 0
	}
	return base
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

// post opens the record of a page request from node to home, with t the task
// that will wait for the reply, prepares its landing zone and sends the
// request. One task may have several requests posted before it waits on any.
func (e *engine) post(t *sim.Task, node, home int, vpn uint64, write bool) *outstanding {
	m, ns := e.m, e.m.nodes[node]
	o := e.requests.take() // the requester's hold
	o.m, o.task, o.home = m, t, home
	m.net.Prepare(t, &o.pr, home, node, &m.frames) // may wait for the sink: before the token
	tok := nextSeq(node, &ns.reqCtr)
	o.req = pageRequest{pid: m.pid, vpn: vpn, write: write, node: node, token: tok, o: o}
	ns.reqs.put(tok, o)
	o.req.floor = e.floor(ns.reqs.base)
	m.net.Send(t, node, home, &o.req)
	return o
}

// wait parks t until o's request is answered; o then holds the reply — a
// dead-home if its home died with the exchange in flight (the caller re-routes
// via the live anchor).
func (e *engine) wait(t *sim.Task, node int, o *outstanding) {
	m := e.m
	e.await(t, &o.waiter, sim.ReasonHex("page reply ", o.req.vpn<<mem.PageShift), node, "request",
		func() bool {
			if !m.dead(o.home) {
				return false
			}
			o.reply.outcome = deadHome
			return true
		},
		func() { m.net.Send(t, node, o.home, &o.req) })
}

// deliverReply hands a page reply from src to the request it answers and
// wakes the requester.
func (e *engine) deliverReply(node, src int, rep *pageReply) {
	m, ns := e.m, e.m.nodes[node]
	p := &ns.peers[src]
	hear(&p.serveFloor, rep.floor, &p.installed)
	if o := p.installed.get(rep.token); o != nil {
		// A grant reply re-sent after our install ack was lost: re-ack the
		// serving home (which, where authority migrates, need not be the origin) so it
		// can close its transition window.
		m.stats.Retransmits++
		hold(o) // the re-ack's
		m.view(node).Spawn("dsm-reack", func(t *sim.Task) {
			m.net.Send(t, node, o.home, (*installAck)(&o.req))
			o.release()
		})
		return
	}
	o := ns.reqs.get(rep.token)
	if o == nil || o.reply.outcome != inFlight {
		// A duplicate of a reply whose transaction is over here, or one that
		// raced in before the requester task resumed.
		e.stray("page reply token", rep.token)
		return
	}
	o.reply, o.reply.st = *rep, nil // the copy names no serve: its flight's hold ends at retire
	o.ack()
}

// forget drops the record of a request that was bounced: its landing zone and
// the requester's hold on it.
func (e *engine) forget(node int, o *outstanding) {
	e.m.nodes[node].reqs.del(o.req.token)
	o.pr.Release()
	o.release()
}

// installed notes that o's grant is installed at node: the transaction is
// over there. Under an injector the record moves to its home's window: the
// home's grant window may still re-send the grant, and until that home's
// floor passes the token a settling home may ask whether it landed.
func (e *engine) installed(node int, o *outstanding) {
	o.installed = true
	e.m.nodes[node].reqs.del(o.req.token)
	if e.m.chaos != nil {
		e.m.nodes[node].peers[o.home].installed.put(o.req.token, o)
	}
}

// crashed drops the requests node had in flight when it died. Its finished
// installs stay: a home settling a grant window the crash left open still
// asks whether its grant had landed.
func (e *engine) crashed(node int) { e.m.nodes[node].reqs = window[*outstanding]{} }

// deferRevoke queues msg behind the install it targets, if one of ns's open
// requests holds a grant for the page that is not installed yet (the
// revocation necessarily targets the ownership that request was just
// granted), and reports whether it did. Of several such grants the lowest
// token's takes it.
func (e *engine) deferRevoke(ns *nodeState, r *appliedRevoke) bool {
	for _, o := range ns.reqs.recs {
		if o != nil && o.req.vpn == r.msg.vpn && o.granted() {
			o.deferred = append(o.deferred, r)
			return true
		}
	}
	return false
}

// granteeDelivered reports whether the grant st served demonstrably reached
// the requester: it either finished installing (st's window is open, so no
// floor has released that record), or, alive, holds the grant reply and will
// finish the install without further protocol traffic.
func (e *engine) granteeDelivered(st *serveState) bool {
	ns, tok := e.m.nodes[st.req.node], st.reply.token
	if o := ns.peers[st.home].installed.get(tok); o != nil {
		return true
	}
	o := ns.reqs.get(tok)
	return o != nil && o.granted() && !e.m.dead(st.req.node)
}

// ---------------------------------------------------------------------------
// The home side.

// admitServe is the home-side dedup gate for a page request delivered at
// node. It returns the fresh serve record to thread through the transaction,
// or nil if the request was a duplicate and has been dealt with here.
func (e *engine) admitServe(node int, req *pageRequest) *serveState {
	m := e.m
	p := &m.nodes[node].peers[req.node]
	hear(&p.reqFloor, req.floor, &p.served)
	if prev := p.served.get(req.token); prev != nil {
		e.redeliverServe(prev)
		return nil
	}
	if req.token < p.reqFloor {
		// The requester had closed this token when it last wrote here: only a
		// stale duplicate of an exchange this home has forgotten can carry it.
		m.stats.DupsIgnored++
		return nil
	}
	st := e.serves.take() // its task's hold
	hold(req.o)           // the serve's, through req
	st.m, st.req, st.home = m, req, node
	st.reply = pageReply{pid: m.pid, token: req.token, st: st}
	p.served.put(req.token, st)
	return st
}

// serveFloor is the floor st's reply carries: no serve of the requester's
// tokens below it is open at st's home, nor can one still open there (a token
// below the requester's own floor is turned away).
func (e *engine) serveFloor(st *serveState) uint64 {
	p := &e.m.nodes[st.home].peers[st.req.node]
	return e.floor(min(p.reqFloor, p.served.base))
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
	// The resend runs on the lane of the node that served the original.
	m.mark(st.home, "dedup.reserve", st.req.vpn)
	hold(st) // the resend's
	m.view(st.home).SpawnSleeping("dsm-resend", originDispatch, func(t *sim.Task) {
		st.RunTask(t) // which, st being closed, replies
		st.release()
	})
}

// bounce answers st's request with something other than a grant and closes
// the record; it returns the reply for the caller to send.
func (e *engine) bounce(st *serveState, out outcome, home int, epoch uint64) *pageReply {
	st.reply.outcome, st.reply.home, st.reply.epoch = out, home, epoch
	st.reply.floor = e.serveFloor(st)
	e.closeServe(st)
	return &st.reply
}

// closeServe marks the serve over (a no-op on a record a bounce closed
// already) and releases its grant snapshot, if it has one a deferred rebuild
// did not take. Without an injector nothing can ask for the record
// again; with one it goes once the requester's floor has passed it.
func (e *engine) closeServe(st *serveState) {
	if st.closed {
		return
	}
	st.closed = true
	e.m.freeFrame(st.data)
	st.data = nil
	if e.m.chaos == nil {
		e.m.nodes[st.home].peers[tokenNode(st.reply.token)].served.del(st.reply.token)
	}
}

// grant answers st's request with ownership at epoch — and data, a frame
// reference it hands to the send, unless the requester's copy is fresh (nil)
// — and opens the grant window.
func (e *engine) grant(t *sim.Task, st *serveState, data []byte, epoch uint64) {
	st.reply.outcome, st.reply.epoch = grant, epoch
	st.reply.floor = e.serveFloor(st)
	if data != nil {
		st.reply.outcome = grantData
		if e.m.chaos != nil {
			// Retain the page so the grant can be re-sent if it is lost.
			st.data = e.m.frames.Share(data)
		}
	}
	st.task = t // before the send: the ack must find the window open
	e.sendGrant(t, st, data)
}

// sendGrant sends st's grant reply, with data — a frame reference the fabric
// takes — if the grant carries any.
func (e *engine) sendGrant(t *sim.Task, st *serveState, data []byte) {
	m, req := e.m, st.req
	if st.reply.outcome == grantData {
		m.net.SendPage(t, st.home, req.node, &req.o.pr, data, &st.reply)
	} else {
		m.net.Send(t, st.home, req.node, &st.reply)
	}
}

// awaitInstall parks the serving task until the requester acknowledges its
// PTE install, re-sending the grant from the retained snapshot. It returns how
// the window closed: the grant's own outcome once installed; rolledBack if the
// requester is confirmed dead; deadHome if the serving home died. The caller
// settles either.
func (e *engine) awaitInstall(t *sim.Task, st *serveState) outcome {
	m := e.m
	out := st.reply.outcome
	e.await(t, &st.waiter, sim.ReasonHex("install ack ", st.reply.token), st.home, "grant",
		func() bool {
			switch {
			case m.dead(st.req.node):
				out = rolledBack
			case m.dead(st.home):
				out = deadHome
			default:
				return false
			}
			return true
		},
		func() { e.sendGrant(t, st, m.frames.Share(st.data)) })
	return out
}

// installAcked closes the grant window an install ack names, at the serving
// home the ack was addressed to.
func (e *engine) installAcked(node int, token uint64) {
	if st := e.m.nodes[node].peers[tokenNode(token)].served.get(token); st == nil || !st.ack() {
		e.stray("install ack token", token)
	}
}

// ---------------------------------------------------------------------------
// Revocations.

// sendRevoke revokes (or downgrades) target's copy of vpn on behalf of the
// serving home from, and returns w, the new record of the wait for its ack.
// newHome and newEpoch are the routing hint the revocation carries (-1: none);
// p, when set, is the pull w is the wait of: the target must ship its copy to
// p's prepared landing zone.
func (e *engine) sendRevoke(t *sim.Task, w *revokeWaiter, from, target int, vpn uint64, downgrade bool, newHome int, newEpoch uint64, p *pull) *revokeWaiter {
	m := e.m
	ns := m.nodes[from]
	w.m, w.task, w.target, w.msg = m, t, int32(target), revokeMsg{
		pid:       m.pid,
		vpn:       vpn,
		seq:       nextSeq(from, &ns.revCtr),
		downgrade: downgrade,
		needData:  p != nil,
		home:      from,
		newHome:   newHome,
		newEpoch:  newEpoch,
		pull:      p,
		w:         w,
	}
	msg := &w.msg
	ns.revokes.put(msg.seq, w)
	msg.floor = e.floor(ns.revokes.base)
	m.net.Send(t, from, target, msg)
	if downgrade {
		m.stats.Downgrades++
	} else {
		m.stats.Invalidations++
	}
	return w
}

// waitRevoke parks the serving task until w's revocation is acknowledged. The
// revocation or its ack may have been lost: it is re-sent, and the wait
// abandoned if the target is confirmed dead (its copy died with it) or the
// issuing home is.
func (e *engine) waitRevoke(t *sim.Task, w *revokeWaiter) {
	m, msg := e.m, &w.msg
	// The revoke-waiting task runs on the issuing home's lane.
	e.await(t, &w.waiter, sim.ReasonHex("revoke ack ", msg.vpn<<mem.PageShift), msg.home, "revoke",
		func() bool {
			switch {
			case m.dead(int(w.target)):
				w.lost = msg.needData
			case m.dead(msg.home):
				// The issuing home itself died mid-serve: every ack sent to
				// it is dropped, so stop retransmitting. Deliver the
				// revocation's effect directly — the fabric would drop the
				// real message (its source is dead), and no stale replica
				// may outlive the dead home's last transaction.
				if r := e.admitRevoke(int(w.target), msg); r != nil {
					m.applyRevokeAdmitted(r)
				}
			default:
				return false
			}
			m.nodes[msg.home].revokes.del(msg.seq)
			return true
		},
		func() { m.net.Send(t, msg.home, int(w.target), msg) })
}

// revokeAcked closes the wait a revoke ack names. Revocations are issued
// from (and acked to) the serving home, whose lane is running right now.
func (e *engine) revokeAcked(node int, seq uint64) {
	ws := &e.m.nodes[node].revokes
	if w := ws.get(seq); w == nil || !w.ack() {
		e.stray("revoke ack seq", seq)
	}
	ws.del(seq)
}

// revokeArrived takes a revocation off the wire at node: the issuer's floor
// is heard, then the dedup gate decides whether it is fresh.
func (e *engine) revokeArrived(node int, msg *revokeMsg) *appliedRevoke {
	p := &e.m.nodes[node].peers[msg.home]
	hear(&p.revFloor, msg.floor, &p.applied)
	return e.admitRevoke(node, msg)
}

// admitRevoke is the receiver-side dedup gate for an incoming revocation at
// node. It returns the record of a fresh one, to apply, and nil for a
// duplicate; only under fault injection are there any, and records to keep.
func (e *engine) admitRevoke(node int, msg *revokeMsg) *appliedRevoke {
	m := e.m
	p := &m.nodes[node].peers[msg.home]
	if m.chaos != nil {
		if prev := p.applied.get(msg.seq); prev != nil {
			if prev.pending {
				// The original is still being applied (or deferred); its ack
				// will cover this duplicate.
				m.stats.DupsIgnored++
			} else {
				// Already applied: the ack must have been lost. Re-ack, with
				// the page the record kept if it shipped one; a floor may trim
				// the record while the re-ack sleeps, so the re-ack holds a
				// reference of its own.
				m.stats.Retransmits++
				m.mark(node, "dedup.reack", msg.vpn)
				data := m.frames.Share(prev.data)
				hold(prev) // the re-ack's
				m.view(node).SpawnSleeping("dsm-reack", invalidateApply, func(t *sim.Task) {
					m.sendRevokeAck(t, prev, data)
					m.freeFrame(data)
					prev.release()
				})
			}
			return nil
		}
		if msg.seq < p.revFloor {
			m.stats.DupsIgnored++
			return nil
		}
	}
	r := e.applied.take() // its task's hold
	hold(msg.w)           // r's, through msg
	r.m, r.msg, r.node, r.pending = m, msg, int32(node), true
	if m.chaos != nil {
		p.applied.put(msg.seq, r)
	}
	return r
}

// revokeApplied closes r once its revocation is applied and acked. Under an
// injector the record stays for duplicates, with a reference to the page a
// needData revocation shipped, so a re-sent one (our ack was lost) gets the
// same data.
func (e *engine) revokeApplied(r *appliedRevoke, frame []byte) {
	if e.m.chaos == nil {
		return
	}
	r.pending = false
	if r.msg.needData {
		r.data = e.m.frames.Share(frame)
	}
}

// sendRevokeAck sends r's ack from its node, shipping a reference to data
// with it if the revocation asked for the page.
func (m *Manager) sendRevokeAck(t *sim.Task, r *appliedRevoke, data []byte) {
	msg := r.msg
	if msg.needData {
		m.net.SendPage(t, int(r.node), msg.home, &msg.pull.pr, m.frames.Share(data), (*revokeAck)(msg))
	} else {
		m.net.Send(t, int(r.node), msg.home, (*revokeAck)(msg))
	}
}
