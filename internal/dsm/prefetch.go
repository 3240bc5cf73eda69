package dsm

import (
	"slices"

	"dex/internal/sim"
)

// Prefetch implements the data-access hints of §IV-A ("developers can
// express these patterns to the DeX system through data access hints to
// reduce protocol overheads"): instead of paying a full request/reply round
// trip per page, one after the other, a thread that knows it is about to
// stream a range posts up to PrefetchBatch ordinary read requests before it
// waits on any. The homes serve them concurrently and the data transfers
// pipeline back-to-back over the same connections; the grants are installed
// as the replies come in. It is the demand path's request, retransmission
// and dedup, so it works under every policy and under fault injection. A
// request that is not granted is dropped: the hint is best effort, and a
// later access simply faults normally.

// PrefetchBatch is the maximum number of read requests a prefetch has
// posted at once, bounded by the RDMA sink pool of one connection.
const PrefetchBatch = 32

// Prefetch pulls read replicas of vpns into ctx.Node and returns the number
// of pages granted. A page is skipped if this node can already read it, a
// fault on it is in flight here, this node is where its requests go, or that
// node is dead.
func (m *Manager) Prefetch(t *sim.Task, ctx Ctx, vpns []uint64) (int, error) {
	node, ns := ctx.Node, m.nodes[ctx.Node]
	granted := 0
	outs := make([]*outstanding, 0, PrefetchBatch)
	for batch := range slices.Chunk(vpns, PrefetchBatch) {
		outs = outs[:0]
		for _, vpn := range batch {
			if m.Lookup(node, vpn, false) != nil {
				continue
			}
			target := m.requestTarget(node, vpn)
			if _, leading := ns.faults[fkey{vpn: vpn}]; leading || target == node || m.dead(target) {
				continue
			}
			if len(outs) == 0 {
				t.Sleep(faultEntry) // one handler entry for the whole batch
			}
			outs = append(outs, m.e.post(t, node, target, vpn, false))
		}
		for _, o := range outs {
			m.e.wait(t, node, o)
			if !o.granted() {
				m.e.forget(node, o)
				continue
			}
			m.install(t, ctx, o, nil)
			granted++
		}
	}
	m.stats.PrefetchedPages += uint64(granted)
	return granted, nil
}
