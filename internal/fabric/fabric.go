// Package fabric models the inter-node messaging layer of DeX (§III-E of the
// paper): an InfiniBand-like interconnect with per node-pair Reliable
// Connection channels, VERB-based small messages drawing from DMA-ready send
// and receive buffer pools, and RDMA-based page transfers through a
// pre-registered "RDMA sink" with a single copy to the final destination.
//
// All costs are charged in virtual time on a sim.Engine: per-message CPU
// overhead, buffer-pool backpressure, per-link serialization at the
// configured bandwidth, and propagation latency. Three page-transfer modes
// are provided so the paper's hybrid design can be compared against the
// alternatives it rules out (per-page dynamic registration, and pushing page
// data through the VERB path).
package fabric

import (
	"fmt"
	"math"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// PageMode selects how page-sized payloads move between nodes.
type PageMode int

const (
	// HybridSink is the paper's design: RDMA into a pre-registered chunk
	// pool at the receiver, then one memcpy to the final destination.
	HybridSink PageMode = iota + 1
	// PerPageReg dynamically registers the destination page for every
	// transfer: zero-copy but pays the registration cost each time.
	PerPageReg
	// VerbOnly pushes page data through the small-message path, consuming
	// send-pool chunks and copying on both sides.
	VerbOnly
)

func (m PageMode) String() string {
	switch m {
	case HybridSink:
		return "hybrid-sink"
	case PerPageReg:
		return "per-page-registration"
	case VerbOnly:
		return "verb-only"
	default:
		return fmt.Sprintf("PageMode(%d)", int(m))
	}
}

// The interconnect's cost model, calibrated to the paper's testbed (§V-D):
// 56 Gbps InfiniBand and a 4 KB page retrieval cost of ~13.6 µs end to end.
const (
	// LinkLatency is the one-way propagation latency. It is also the
	// lookahead the fabric guarantees the simulator: no effect of a send
	// reaches another node earlier than LinkLatency after it was posted.
	LinkLatency time.Duration = 3500 * time.Nanosecond
	// sendCPU is the per-message CPU cost of posting a VERB send.
	sendCPU time.Duration = 700 * time.Nanosecond
	// chunkSize is the size of one send-pool or sink chunk in bytes.
	chunkSize int = 4096
	// memcpyBandwidth is the local copy bandwidth in bytes per second, used
	// for sink-to-destination and VERB staging copies.
	memcpyBandwidth float64 = 3e9
	// registerCost is the cost of one dynamic RDMA region association
	// (PerPageReg mode only).
	registerCost time.Duration = 4500 * time.Nanosecond
	// rdmaPostCPU is the CPU cost of posting one RDMA write.
	rdmaPostCPU time.Duration = 1200 * time.Nanosecond
)

// Params configures the interconnect: its size, the page-transfer mode and
// the costs and pool depths tests vary. DefaultParams returns values
// calibrated against the measurements reported in the paper (§V-D).
type Params struct {
	Nodes int

	// LinkBandwidth is the per-direction bandwidth of each node-pair link
	// in bytes per second.
	LinkBandwidth float64
	// RecvCPU is the per-message cost of completion handling at the
	// receiver before the handler runs and the buffer is reposted.
	RecvCPU time.Duration

	// SendPoolChunks is the number of send-buffer chunks per connection.
	SendPoolChunks int
	// RecvPoolSlots is the number of posted receives per connection.
	RecvPoolSlots int
	// SinkChunks is the number of RDMA-sink chunks per connection.
	SinkChunks int

	// Mode selects the page-transfer strategy.
	Mode PageMode
}

// DefaultParams returns interconnect parameters calibrated to the paper's
// testbed: 56 Gbps InfiniBand and 64-deep pools on every connection.
func DefaultParams(nodes int) Params {
	return Params{
		Nodes:          nodes,
		LinkBandwidth:  56e9 / 8 * 0.85, // 56 Gbps less framing overhead
		RecvCPU:        1000 * time.Nanosecond,
		SendPoolChunks: 64,
		RecvPoolSlots:  64,
		SinkChunks:     64,
		Mode:           HybridSink,
	}
}

// Message is a unit of inter-node communication. Implementations live in the
// protocol layers; the fabric only needs the wire size.
type Message interface {
	Size() int
}

// Handler processes a message delivered to a node. Handlers run in event
// context and must not block; blocking work must be handed to a task.
type Handler func(src int, m Message)

// Expendable marks messages the chaos layer may drop or duplicate: idempotent
// protocol traffic whose sender retransmits on timeout and whose receiver
// deduplicates. Messages without the marker (e.g. core's execution-context
// envelopes, which run arbitrary closures exactly once) are never dropped or
// duplicated — only delayed or held by partitions, which is safe for every
// message class.
type Expendable interface {
	Message
	ChaosExpendable()
}

func expendable(m Message) bool {
	_, ok := m.(Expendable)
	return ok
}

// Held is a message in a record its sender recycles: a flight that carries it,
// or lands in the landing zone it announces, holds the record until it retires.
type Held interface {
	Message
	Hold()
	Release()
}

// GlobalDelivery marks messages whose receive-side processing must run on the
// simulator's global lane rather than the destination node's lane: handlers
// that touch cross-cutting state (core's execution-context envelopes run
// arbitrary closures against process-wide structures). Global-lane events
// serialize their window, so such handlers may safely touch any node's state.
type GlobalDelivery interface {
	Message
	DeliverGlobal()
}

// Stats aggregates fabric activity counters.
type Stats struct {
	SmallSends    uint64
	SmallBytes    uint64
	PageSends     uint64
	PageBytes     uint64
	RDMAWrites    uint64
	Registrations uint64
	MemcpyBytes   uint64
	SendPoolWaits uint64
	RecvRNRStalls uint64
	SinkWaits     uint64
}

// Network is the simulated interconnect connecting Params.Nodes nodes with a
// full mesh of RC connections.
type Network struct {
	eng      *sim.Engine
	params   Params
	conns    []conn // conns[src*Nodes+dst]; the diagonal is unused
	handlers []Handler
	stats    Stats
	rec      *obs.Recorder
	inj      *chaos.Injector

	// free holds the retired flights (newFlight, retire). One goroutine runs
	// a simulation, so one list serves every lane without a lock: a flight
	// is taken where its message is sent and retired where its last step
	// runs, usually on another lane. made counts the flights ever allocated;
	// with nothing in flight the list holds them all.
	free []*flight
	made int
}

// fabricLane offsets the source node into the Perfetto thread id of a
// message span, so each node's timeline shows one receive lane per peer
// below its application threads.
const fabricLane = 1000

// SetRecorder attaches the observability recorder; nil (the default) keeps
// every instrumentation point on its single disabled branch.
func (n *Network) SetRecorder(rec *obs.Recorder) { n.rec = rec }

// SetChaos attaches a fault injector; nil (the default) keeps every
// injection point on a single disabled branch, so a run without chaos is
// byte-identical to one built before the subsystem existed.
func (n *Network) SetChaos(inj *chaos.Injector) { n.inj = inj }

// Chaos returns the attached fault injector, or nil. Protocol layers use it
// both to learn whether retransmission machinery must be armed and as the
// ground truth for node liveness.
func (n *Network) Chaos() *chaos.Injector { return n.inj }

// conn is one directed connection src -> dst: the send side (link, sendPool),
// the RDMA sink, and two queue pairs.
type conn struct {
	net      *Network
	src, dst int
	link     sim.Bus
	sendPool sim.Semaphore
	sinkPool sim.Semaphore
	// sent lists the sends whose chunks are not back in sendPool, by completion
	// time — ascending, since the link serializes them in order. The next
	// sender returns the elapsed ones before it takes its own (reapSent); no
	// event does, unless a sender finds the pool empty (awaitSendChunk).
	sent []sentChunks

	// GlobalDelivery messages ride a dedicated control queue pair: a data QP
	// whose posted receives never run out and whose events run on the global
	// lane. Its arrivals must never be entangled with the data QP's in-order
	// drain (a data completion on the destination lane cannot hand work to the
	// global lane mid-window), and data backlog does not head-of-line-block
	// control traffic; RNR storms and partitions still apply to it.
	data, ctl qp
}

// qp is the receive side of one queue pair and its ordering point.
type qp struct {
	conn *conn
	// lane and view are where the QP's arrivals and completions execute: the
	// destination node's, or the global lane's for the control QP.
	lane int
	view *sim.Engine

	posted    int // receives posted and not consumed
	rnrQueue  []*flight
	deliverAt time.Duration // enforces in-order delivery per QP
	// stormDrainAt is the latest scheduled RNR-storm drain; it keeps one
	// storm from scheduling a drain event per stalled message.
	stormDrainAt time.Duration
}

// qpFor returns the queue pair m rides.
func (c *conn) qpFor(m Message) *qp {
	if _, ok := m.(GlobalDelivery); ok {
		return &c.ctl
	}
	return &c.data
}

// flight is one in-order connection event: either a VERB message awaiting
// delivery (and possibly a posted receive), or an RDMA data placement. Both
// kinds flow through the same per-connection ordering point, because an RC
// queue pair executes its work queue strictly in order — an RDMA write
// posted after a send may not complete at the receiver before it.
//
// It is all a message needs between its send and its handler, and it is its
// own event (a sim.Runner) at each step of the way: its arrival at its QP and
// then, scheduled again once a receive is consumed, its receive completion. It
// waits in an RNR queue as itself. Like an RC connection's work queue, what is
// in flight is state of the connection, not a chain of callbacks; and like the
// connection's buffers it is reused, not allocated per message (newFlight,
// retire).
type flight struct {
	qp *qp
	m  Message
	// pr is non-nil for an RDMA data placement, which lands buf, a frame
	// reference of its own, in it.
	pr  *PageRecv
	buf []byte

	// Tracing state, populated only when a recorder is attached: the
	// simulated time the sender entered the fabric (span start), the payload
	// class/size, and the RNR-stall start time once the event queues.
	sentAt  time.Duration
	stallAt time.Duration
	bytes   int
	page    bool
	stalled bool

	accepted bool // its next event is the receive completion, not the arrival

	held Held // m, or the reply announcing the page it places, if Held

	// last is the connection a retired flight (qp nil) last rode: what a
	// second retire or a late event names when it panics.
	last *conn
}

// newFlight takes a flight off the network's free list, or allocates one.
// The caller sets every field.
func (n *Network) newFlight() *flight {
	if k := len(n.free) - 1; k >= 0 {
		f := n.free[k]
		n.free = n.free[:k]
		return f
	}
	n.made++
	return new(flight)
}

// hold makes f a holder of m's record, if m lives in one (Held).
func (f *flight) hold(m Message) {
	if h, ok := m.(Held); ok {
		h.Hold()
		f.held = h
	}
}

// retire puts f back on the free list once its last step has run: its
// receive completion, its placement, or its drop at a dead node. It lets go
// of the message, the page reference a placement did not hand to its landing
// zone and its hold, so a retired flight keeps nothing alive.
func (n *Network) retire(f *flight) {
	if f.qp == nil {
		panic(fmt.Sprintf("fabric: flight on %v retired twice", f.last))
	}
	if f.buf != nil {
		f.pr.pool.Release(f.buf)
	}
	if f.held != nil {
		f.held.Release()
	}
	*f = flight{last: f.qp.conn}
	n.free = append(n.free, f)
}

// RunEvent is the flight's next step.
func (f *flight) RunEvent() {
	if f.qp == nil {
		panic(fmt.Sprintf("fabric: event on a retired flight of %v", f.last))
	}
	if n := f.qp.conn.net; f.accepted {
		n.complete(f)
	} else {
		n.arrive(f)
	}
}

// spanName returns the trace span name for this connection event.
func (f *flight) spanName() string {
	if f.page {
		return "msg.page"
	}
	return "msg.small"
}

// String names the connection in a panic.
func (c *conn) String() string { return fmt.Sprintf("link%d->%d", c.src, c.dst) }

// sentChunks is a send's hold on the send pool: chunks of them until done.
type sentChunks struct {
	done   time.Duration
	chunks int
}

// chunkRelease is a conn as the event that returns one send-pool chunk to a
// sender waiting for it; there is nothing to allocate per chunk.
type chunkRelease conn

func (r *chunkRelease) RunEvent() { r.sendPool.Release() }

// New creates a network. It panics on invalid parameters, since those are
// programming errors in experiment setup.
func New(eng *sim.Engine, p Params) *Network {
	if p.Nodes < 1 {
		panic("fabric: need at least one node")
	}
	if p.SendPoolChunks <= 0 || p.RecvPoolSlots <= 0 || p.SinkChunks <= 0 {
		panic("fabric: buffer pool parameters must be positive")
	}
	if p.Mode == 0 {
		p.Mode = HybridSink
	}
	n := &Network{
		eng:      eng,
		params:   p,
		conns:    make([]conn, p.Nodes*p.Nodes),
		handlers: make([]Handler, p.Nodes),
	}
	// Each connection binds its endpoints' lane views; on an engine without
	// lanes (unit tests, microbenchmarks) those are the root view, which
	// schedules everything on the global lane — the classic serial behavior.
	for src := 0; src < p.Nodes; src++ {
		for dst := 0; dst < p.Nodes; dst++ {
			if src == dst {
				continue
			}
			c := &n.conns[src*p.Nodes+dst]
			c.net, c.src, c.dst = n, src, dst
			// The link bus is send-side state: it is bound to the source
			// node's lane view so Occupy reads the clock of the lane the send
			// chain executes on.
			c.link.Init(eng.LaneView(src), sim.ReasonPair("link", uint32(src), uint32(dst)), p.LinkBandwidth)
			c.sendPool.Init(sim.ReasonPair("semaphore sendpool link", uint32(src), uint32(dst)), p.SendPoolChunks)
			c.sinkPool.Init(sim.ReasonPair("semaphore sink link", uint32(src), uint32(dst)), p.SinkChunks)
			c.data = qp{conn: c, lane: dst, view: eng.LaneView(dst), posted: p.RecvPoolSlots}
			c.ctl = qp{conn: c, lane: sim.GlobalLane, view: eng.LaneView(sim.GlobalLane), posted: math.MaxInt}
		}
	}
	return n
}

// Params returns the network configuration.
func (n *Network) Params() Params { return n.params }

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// SetHandler installs the message handler for a node. It must be set before
// any message is sent to that node.
func (n *Network) SetHandler(node int, h Handler) { n.handlers[node] = h }

func (n *Network) conn(src, dst int) *conn {
	if src == dst {
		panic(fmt.Sprintf("fabric: self-send on node %d", src))
	}
	c := &n.conns[src*n.params.Nodes+dst]
	if c.net == nil {
		panic(fmt.Sprintf("fabric: no connection %d->%d", src, dst))
	}
	return c
}

// Send transmits a small (VERB) message from src to dst, charging the
// calling task the posting cost and blocking it if the send buffer pool is
// exhausted. Delivery is asynchronous: Send returns once the message is
// posted, and the destination handler runs after serialization, propagation,
// and receive-completion costs.
func (n *Network) Send(t *sim.Task, src, dst int, m Message) {
	var v chaos.Verdict
	if n.inj != nil {
		v = n.inj.Verdict(t.Engine().Now(), src, dst, m.Size(), expendable(m))
	}
	n.sendWith(t, src, dst, m, v)
}

// sendWith is Send with a pre-decided chaos verdict; SendPage uses it to
// fate-share one verdict between an RDMA placement and its completion
// message. Whatever the verdict, the sender pays identical costs — a fault
// is invisible from the sending side until a timeout notices it.
func (n *Network) sendWith(t *sim.Task, src, dst int, m Message, v chaos.Verdict) {
	c := n.conn(src, dst)
	// sv is the lane the send chain executes on: the sending task's lane
	// (the source node's lane for application threads, the global lane for
	// core worker tasks — which serialize, so touching src's send-side conn
	// state from there is safe).
	sv := t.Engine()
	sentAt := sv.Now()
	t.Sleep(sendCPU)
	chunks := n.chunksFor(m.Size())
	n.acquireSendChunks(t, c, chunks)
	n.stats.SmallSends++
	n.stats.SmallBytes += uint64(m.Size())
	serDone := c.link.Occupy(m.Size())
	releaseSendChunks(sv, c, chunks, serDone)
	if v.Drop {
		if n.rec != nil {
			n.rec.SpanAt("chaos", "drop", dst, fabricLane+src, sv.Now(), 0,
				obs.Int("src", int64(src)), obs.Int("bytes", int64(m.Size())))
		}
		return
	}
	// The flight is taken only now, past the send's last yield: a dropped
	// send never has one, and a task killed mid-send holds none.
	f := n.newFlight()
	*f = flight{qp: c.qpFor(m), m: m}
	f.hold(m)
	if n.rec != nil {
		f.sentAt = sentAt
		f.bytes = m.Size()
	}
	at := serDone + LinkLatency + v.Delay
	n.deliver(sv, f, at)
	if v.Dup {
		if n.rec != nil {
			n.rec.SpanAt("chaos", "dup", dst, fabricLane+src, sv.Now(), 0,
				obs.Int("src", int64(src)))
		}
		n.deliver(sv, n.dup(f), at)
	}
}

// dup returns the second flight of a duplicated one, with a page reference
// and a hold on f's record of its own.
func (n *Network) dup(f *flight) *flight {
	d := n.newFlight()
	*d = *f
	if f.buf != nil {
		f.pr.pool.Share(f.buf)
	}
	if f.held != nil {
		f.held.Hold()
	}
	return d
}

func (n *Network) chunksFor(size int) int {
	chunks := (size + chunkSize - 1) / chunkSize
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// acquireSendChunks takes a send's DMA-ready chunks from the connection's
// pool, after returning to it those of the sends that have completed by now.
// Only a sender that then finds the pool empty waits, and is counted.
func (n *Network) acquireSendChunks(t *sim.Task, c *conn, chunks int) {
	sv := t.Engine()
	for i := 0; i < chunks; i++ {
		c.reapSent(sv.Now())
		if !c.sendPool.TryAcquire() {
			n.stats.SendPoolWaits++
			c.awaitSendChunk(t)
		}
	}
}

// reapSent returns the chunks of every send completed by now.
func (c *conn) reapSent(now time.Duration) {
	k := 0
	for ; k < len(c.sent) && c.sent[k].done <= now; k++ {
		for i := 0; i < c.sent[k].chunks; i++ {
			c.sendPool.Release()
		}
	}
	if k > 0 {
		c.sent = c.sent[:copy(c.sent, c.sent[k:])]
	}
}

// awaitSendChunk blocks t until a chunk comes back. Nobody polls for that, so
// the outstanding completions become events first, each at its time; t is
// handed the chunk of the earliest.
func (c *conn) awaitSendChunk(t *sim.Task) {
	for _, s := range c.sent {
		c.releaseAt(t.Engine(), s)
	}
	c.sent = c.sent[:0]
	c.sendPool.Acquire(t)
}

// releaseAt schedules the events that return s's chunks at its completion.
func (c *conn) releaseAt(sv *sim.Engine, s sentChunks) {
	for i := 0; i < s.chunks; i++ {
		sv.AfterRun(s.done-sv.Now(), (*chunkRelease)(c))
	}
}

// releaseSendChunks returns a send's chunks to the pool when the send
// completes, at done: as a note for the next sender to act on or, while
// senders wait on the pool, as the events that wake them.
func releaseSendChunks(sv *sim.Engine, c *conn, chunks int, done time.Duration) {
	s := sentChunks{done: done, chunks: chunks}
	if c.sendPool.Waiting() > 0 {
		c.releaseAt(sv, s)
		return
	}
	c.sent = append(c.sent, s)
}

// deliver is the per-QP ordering point: it schedules a connection event (VERB
// delivery, RDMA data placement, or control envelope) at the destination no
// earlier than `at`, preserving per-QP FIFO. sv is the lane view of the
// sending context; the flight is scheduled as its own arrival event onto its
// QP's lane and executes there.
func (n *Network) deliver(sv *sim.Engine, f *flight, at time.Duration) {
	q := f.qp
	if n.inj != nil {
		// A partition holds the whole connection: delivery resumes when it
		// heals. Holding (not dropping) keeps every message class safe.
		if until, held := n.inj.HeldUntil(sv.Now(), q.conn.src, q.conn.dst); held && at < until {
			at = until
		}
	}
	// Each QP's clamp is strictly monotone, so same-instant arrivals can never
	// be reordered by lane-key tie-breaks: arrival order is send order. The
	// control QP's own clock keeps control arrivals in send order regardless
	// of which lane each send executed on.
	if at <= q.deliverAt {
		at = q.deliverAt + 1
	}
	q.deliverAt = at
	sv.AfterRunOn(q.lane, at-sv.Now(), f)
}

// arrive is a QP's arrival point, modeling receiver-not-ready stalls when the
// posted-receive pool is empty. The control QP's runs on the global lane, so
// its handler may touch cross-cutting state, and only storms and partitions
// stall it, not data backlog.
func (n *Network) arrive(f *flight) {
	q := f.qp
	c := q.conn
	if n.inj != nil {
		// A crashed machine neither sends nor receives: traffic touching it
		// vanishes, including messages already in flight at crash time.
		if n.inj.NodeDead(c.dst) || n.inj.NodeDead(c.src) {
			n.inj.CountDrop(f.wireBytes())
			n.retire(f)
			return
		}
		// An RNR storm forces receiver-not-ready for everything that arrives
		// during the window; the backlog drains in order when it ends.
		if until, storming := n.inj.RNRUntil(q.view.Now(), c.dst); storming {
			n.stall(f)
			if q.stormDrainAt < until {
				q.stormDrainAt = until
				q.view.After(until-q.view.Now(), func() { n.drain(q) })
			}
			return
		}
	}
	if len(q.rnrQueue) > 0 || (f.pr == nil && q.posted == 0) {
		// Either the receiver is not ready, or earlier events are already
		// stalled behind it. An RC connection replays its stream in order
		// after an RNR NAK, so even an RDMA placement may not pass a
		// stalled send.
		n.stall(f)
		return
	}
	n.accept(f)
}

// stall queues a flight that found its receiver not ready.
func (n *Network) stall(f *flight) {
	if f.pr == nil {
		n.stats.RecvRNRStalls++
	}
	if n.rec != nil {
		f.stalled = true
		f.stallAt = f.qp.view.Now()
	}
	f.qp.rnrQueue = append(f.qp.rnrQueue, f)
}

// wireBytes is the payload size of a connection event, for drop accounting
// (an RDMA placement has no Message, only data).
func (f *flight) wireBytes() int {
	if f.m != nil {
		return f.m.Size()
	}
	return f.bytes
}

// drain restarts delivery on a QP, when an RNR storm ends and after each
// completion: placements flow freely, and the first VERB message takes a
// posted receive and its completion continues the drain in order, so nothing
// queued behind it can pass it.
func (n *Network) drain(q *qp) {
	for len(q.rnrQueue) > 0 {
		// Read before accept, which retires a placement.
		placement := q.rnrQueue[0].pr != nil
		if !placement && q.posted == 0 {
			return // a completion will repost a buffer and continue
		}
		n.accept(sim.PopFront(&q.rnrQueue))
		if !placement {
			return // its completion continues the drain
		}
	}
}

// accept consumes one connection event whose turn has come: a placement
// lands, a message takes a posted receive and becomes its receive-completion
// event.
func (n *Network) accept(f *flight) {
	q := f.qp
	c := q.conn
	if n.rec != nil && f.stalled {
		n.rec.SpanAt("fabric", "rnr.stall", c.dst, fabricLane+c.src, f.stallAt,
			q.view.Now()-f.stallAt, obs.Int("src", int64(c.src)))
	}
	if f.pr != nil {
		f.pr.land(f.buf)
		f.buf = nil
		n.span(f)
		n.retire(f)
		return
	}
	q.posted--
	f.accepted = true
	q.view.AfterRun(n.params.RecvCPU, f)
}

// span records a delivered flight: enqueue → (stall) → placed, or handed to
// the protocol handler.
func (n *Network) span(f *flight) {
	if n.rec != nil {
		q := f.qp
		n.rec.Span("fabric", f.spanName(), q.conn.dst, fabricLane+q.conn.src, f.sentAt,
			obs.Int("src", int64(q.conn.src)), obs.Int("bytes", int64(f.bytes)))
		n.rec.Observe(f.spanName(), q.view.Now()-f.sentAt)
	}
}

// complete is a message's receive completion: the handler runs, the
// DMA-ready receive buffer is recycled by reposting it, and the QP's stalled
// events drain in order behind it.
func (n *Network) complete(f *flight) {
	q := f.qp
	c := q.conn
	h := n.handlers[c.dst]
	if h == nil {
		panic(fmt.Sprintf("fabric: no handler on node %d for message from %d", c.dst, c.src))
	}
	n.span(f)
	h(c.src, f.m)
	n.retire(f)
	q.posted++
	n.drain(q)
}

// PageRecv is a prepared landing zone for one incoming page-sized transfer.
// The requester prepares it before asking a peer for data, passes its Handle
// in the request, and either Claims the data after the reply or Releases the
// reservation if the peer replied without data. The data is a frame
// reference: the zone keeps the first to land and hands it to Claim; every
// later one, and one still held when the zone is Released, goes back to the
// pool the zone was prepared with.
type PageRecv struct {
	pool *mem.FramePool
	conn *conn // connection peer->self, whose sink the buffer came from
	data []byte
	used bool
}

// PreparePageRecv reserves receive-side resources at node `self` for a page
// transfer from node `peer`, blocking the task if the sink pool is
// exhausted. In PerPageReg mode it charges the dynamic registration cost;
// in VerbOnly mode it is free. Its frames are the collector's.
func (n *Network) PreparePageRecv(t *sim.Task, peer, self int) *PageRecv {
	pr := new(PageRecv)
	n.Prepare(t, pr, peer, self, nil)
	return pr
}

// Prepare is PreparePageRecv into a landing zone the caller owns (one
// embedded in a record), whose frame references pool takes back: it
// overwrites pr and allocates nothing.
func (n *Network) Prepare(t *sim.Task, pr *PageRecv, peer, self int, pool *mem.FramePool) {
	c := n.conn(peer, self)
	*pr = PageRecv{pool: pool, conn: c}
	switch n.params.Mode {
	case HybridSink:
		if !c.sinkPool.TryAcquire() {
			n.stats.SinkWaits++
			c.sinkPool.Acquire(t)
		}
	case PerPageReg:
		n.stats.Registrations++
		t.Sleep(registerCost)
	case VerbOnly:
		// Page data will ride the VERB path; nothing to reserve.
	default:
		panic("fabric: unknown page mode")
	}
}

// land puts page data, a frame reference, in the zone: the first to arrive
// is kept for Claim, and a later one (a duplicate, a re-send, or one after
// the zone was claimed or released) is released at once.
func (pr *PageRecv) land(data []byte) {
	if pr.used || pr.data != nil {
		pr.pool.Release(data)
		return
	}
	pr.data = data
}

// SendPage transmits page data plus a reply message from src to dst
// according to the configured mode. The data lands in the PageRecv the
// requester prepared (identified by the reply routing in the protocol
// layer); reply is delivered to dst's handler strictly after the data. The
// calling task is charged posting and staging costs.
//
// data is one frame reference the caller hands over: nothing is copied, and
// the fabric releases the reference to the landing zone's pool if the page
// never lands (a drop, a dead node) or lands where it is not wanted. A
// duplicated placement carries a reference of its own. The frame must not be
// written while the transfer holds it.
//
// Accounting: the page payload is always counted under PageSends/PageBytes,
// whatever path carries it; SmallSends/SmallBytes count VERB messages with
// only their non-page bytes, so PageBytes+SmallBytes equals the bytes the
// links actually carried in every mode.
func (n *Network) SendPage(t *sim.Task, src, dst int, pr *PageRecv, data []byte, reply Message) {
	if pr == nil {
		panic("fabric: SendPage requires a prepared PageRecv")
	}
	c := n.conn(src, dst)
	sv := t.Engine()
	n.stats.PageSends++
	n.stats.PageBytes += uint64(len(data))
	// One chaos verdict covers the page data and its completion message: an
	// RC stream fails as a unit, so the receiver never sees data without the
	// reply that announces it, or vice versa.
	var v chaos.Verdict
	if n.inj != nil {
		v = n.inj.Verdict(sv.Now(), src, dst, len(data)+reply.Size(), expendable(reply))
	}
	switch n.params.Mode {
	case HybridSink, PerPageReg:
		n.stats.RDMAWrites++
		sentAt := sv.Now() // the span starts when the sender enters the fabric
		t.Sleep(rdmaPostCPU)
		done := c.link.Occupy(len(data))
		if v.Drop {
			pr.pool.Release(data)
		} else {
			// Route the placement through the connection's ordering point so
			// page data and VERB messages keep one per-connection FIFO.
			place := n.newFlight()
			*place = flight{qp: &c.data, pr: pr, buf: data, bytes: len(data), sentAt: sentAt, page: true}
			place.hold(reply)
			at := done + LinkLatency + v.Delay
			n.deliver(sv, place, at)
			if v.Dup {
				n.deliver(sv, n.dup(place), at)
			}
		}
		n.sendWith(t, src, dst, reply, v) // same connection: FIFO after the RDMA write
	case VerbOnly:
		sentAt := sv.Now()
		t.Sleep(n.memcpyCost(len(data))) // stage into send chunks
		n.stats.MemcpyBytes += uint64(len(data))
		chunks := n.chunksFor(len(data) + reply.Size())
		n.acquireSendChunks(t, c, chunks)
		t.Sleep(sendCPU)
		n.stats.SmallSends++
		n.stats.SmallBytes += uint64(reply.Size()) // page payload counted above
		done := c.link.Occupy(len(data) + reply.Size())
		releaseSendChunks(sv, c, chunks, done)
		pr.land(data) // visible once the reply is handled
		if v.Drop {
			return
		}
		f := n.newFlight()
		*f = flight{qp: c.qpFor(reply), m: reply}
		f.hold(reply)
		if n.rec != nil {
			f.sentAt = sentAt
			f.bytes = len(data) + reply.Size()
			f.page = true
		}
		at := done + LinkLatency + v.Delay
		n.deliver(sv, f, at)
		if v.Dup {
			n.deliver(sv, n.dup(f), at)
		}
	}
}

// Claim returns the received page data, a frame reference the caller now
// holds, charging the mode's finalization cost (sink memcpy for HybridSink,
// receive-side staging copy for VerbOnly) and releasing receive-side
// resources. It must be called at the destination after the reply message
// has been handled.
func (pr *PageRecv) Claim(t *sim.Task) []byte {
	if pr.used {
		panic("fabric: PageRecv reused")
	}
	pr.used = true
	data := pr.data
	if data == nil {
		panic("fabric: Claim before page data arrived")
	}
	pr.data = nil
	n := pr.conn.net
	switch n.params.Mode {
	case HybridSink:
		t.Sleep(n.memcpyCost(len(data)))
		n.stats.MemcpyBytes += uint64(len(data))
		pr.conn.sinkPool.Release()
	case PerPageReg:
		// Zero copy: RDMA wrote straight into the registered page.
	case VerbOnly:
		t.Sleep(n.memcpyCost(len(data)))
		n.stats.MemcpyBytes += uint64(len(data))
	}
	return data
}

// SinkFree reports how many of the src->dst connection's sink chunks no
// landing zone holds.
func (n *Network) SinkFree(src, dst int) int { return n.conn(src, dst).sinkPool.Available() }

// Release frees the reservation, and any page data that landed, when the
// peer replied without page data (e.g. an ownership-only grant).
func (pr *PageRecv) Release() {
	if pr.used {
		return
	}
	pr.used = true
	pr.pool.Release(pr.data)
	pr.data = nil
	if c := pr.conn; c != nil && c.net.params.Mode == HybridSink { // a zone never prepared holds no chunk
		c.sinkPool.Release()
	}
}

func (n *Network) memcpyCost(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / memcpyBandwidth * float64(time.Second))
}
