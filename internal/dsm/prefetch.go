package dsm

import (
	"fmt"
	"slices"

	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// Batched prefetch implements the data-access hints of §IV-A ("developers
// can express these patterns to the DeX system through data access hints to
// reduce protocol overheads"): instead of paying a full request/reply round
// trip per page, a thread that knows it is about to stream a range asks the
// origin for up to PrefetchBatch pages in one request. The origin grants
// each available page with the ordinary read transaction and pipelines the
// data transfers back-to-back over the same connection; pages that are busy
// or already held are skipped (the hint is best effort — a later access
// simply faults normally).

// PrefetchBatch is the maximum number of pages per prefetch request,
// bounded by the RDMA sink pool of one connection.
const PrefetchBatch = 32

// prefetchRequest asks the origin for read replicas of a batch of pages.
type prefetchRequest struct {
	pid    int
	node   int
	vpns   []uint64
	tokens []uint64
	prs    []*fabric.PageRecv
}

func (r *prefetchRequest) Size() int { return 64 + 8*len(r.vpns) }

// Prefetch pulls read replicas of the pages spanning [addr, addr+size)
// into ctx.Node with a single batched request per PrefetchBatch pages. It
// returns the number of pages actually granted. Pages already present,
// busy, or owned exclusively by this node are skipped.
func (m *Manager) Prefetch(t *sim.Task, ctx Ctx, vpns []uint64) (int, error) {
	if ctx.Node == m.origin {
		// Everything is a local fault at the origin; first touch is cheap
		// and prefetch buys nothing.
		return 0, nil
	}
	if m.dir.laneOwned {
		// The batched exchange targets the origin's directory; with the
		// directory sharded across nodes there is no single server to batch
		// against, so the hint degrades to ordinary demand faulting.
		return 0, nil
	}
	if m.chaos != nil {
		// Prefetch is a pure hint and its batched exchange is not hardened
		// against message loss; under fault injection it is disabled and
		// demand faulting (which is hardened) does all the work.
		return 0, nil
	}
	granted := 0
	for batch := range slices.Chunk(vpns, PrefetchBatch) {
		granted += m.prefetchBatch(t, ctx.Node, batch)
	}
	return granted, nil
}

func (m *Manager) prefetchBatch(t *sim.Task, node int, batch []uint64) int {
	ns := m.nodes[node]
	req := &prefetchRequest{pid: m.pid, node: node}
	outs := make([]*outstanding, 0, len(batch))
	for _, vpn := range batch {
		if m.Lookup(node, vpn, false) != nil {
			continue // already readable here
		}
		if _, leading := ns.faults[fkey{vpn: vpn, write: false}]; leading {
			continue // a demand fault is already in flight
		}
		pr := m.net.PreparePageRecv(t, m.origin, node)
		o := m.e.open(t, node, m.origin, vpn)
		outs = append(outs, o)
		req.vpns = append(req.vpns, vpn)
		req.tokens = append(req.tokens, o.token)
		req.prs = append(req.prs, pr)
	}
	if len(req.vpns) == 0 {
		return 0
	}
	t.Sleep(m.params.FaultEntry) // one handler entry for the whole batch
	m.net.Send(t, node, m.origin, req)
	for _, o := range outs {
		for !o.done {
			t.Park("prefetch batch")
		}
	}
	// Install every granted page under a single PTE-update pass.
	granted := 0
	t.Sleep(m.params.PTEInstall)
	for i, o := range outs {
		pr := req.prs[i]
		if !o.granted() {
			pr.Release()
			m.e.forget(node, o)
			continue
		}
		if o.reply.outcome != grantData {
			panic(fmt.Sprintf("dsm: prefetch grant without data for vpn %#x", o.vpn))
		}
		frame := pr.Claim(t)
		ns.pt.SetAccess(o.vpn, frame, mem.AccessRead)
		m.e.installed(node, o)
		for _, msg := range o.deferred {
			m.applyRevokeAdmitted(node, msg)
		}
		granted++
	}
	m.stats.PrefetchedPages += uint64(granted)
	if granted > 0 {
		// The origin registered an install-wait when it granted the first
		// page of the batch; a fully skipped batch expects no ack.
		m.net.Send(t, node, m.origin, &installAck{pid: m.pid, token: req.tokens[0]})
	}
	return granted
}

// servePrefetch runs at the origin: it grants each requested page with the
// normal read transaction, pipelining the data transfers. Busy pages and
// pages the requester already holds are NACKed (best effort). The batch
// holds every touched directory entry busy until the requester's single
// install-ack arrives, keyed by the first token.
func (m *Manager) servePrefetch(t *sim.Task, req *prefetchRequest) {
	t.Sleep(m.params.OriginDispatch)
	var held []*dirEntry
	st := m.e.openServe(t, m.origin, req.tokens[0], nil)
	for i, vpn := range req.vpns {
		token := req.tokens[i]
		de, _ := m.resident(m.origin, vpn)
		// A page whose home has migrated away from the origin cannot be
		// served here (HomeMigrate only); bounce it like a busy page so the
		// requester falls back to demand faulting at the real home.
		bounce := de.busy() || de.home != m.origin
		if bounce || de.has(req.node) {
			out := stale
			if bounce {
				out = nack
			}
			m.net.Send(t, m.origin, req.node, &pageReply{pid: m.pid, token: token, outcome: out})
			continue
		}
		de.begin()
		held = append(held, de)
		t.Sleep(m.params.Directory)
		data := m.serveLocked(t, de, req.node, vpn, false)
		if data == nil {
			panic("dsm: prefetch read grant must carry data")
		}
		m.net.SendPageBuf(t, m.origin, req.node, req.prs[i], data,
			&pageReply{pid: m.pid, token: token, outcome: grantData}, m.frames.Get())
	}
	if len(held) > 0 {
		// A fully skipped batch is sent no ack.
		m.e.awaitInstall(t, st, nil)
	}
	for _, de := range held {
		de.end()
	}
	m.e.closeServe(st)
}
