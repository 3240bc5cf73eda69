package core

import (
	"slices"
	"time"

	"dex/internal/mem"
)

// PollIdle is the sleep of a thread that polls: the loop
//
//	for {
//		th.Sleep(period)
//		for _, a := range addrs {
//			th.Read(a, buf[:n]) // and find nothing new
//		}
//	}
//
// left at the first wake-up whose round of reads the caller has to make
// itself. A round that provably reads what the last one read — every polled
// page still mapped here and unwritten, the node's VMA set unchanged — is not
// made: at that wake-up the thread is charged what the round costs (a TLB
// lookup per page, the small-access charges added to its batch) in event
// context, with no switch into it, and sleeps on (sim.Task.SleepWhile). It
// returns, one period or more later, at the first wake-up where a polled page
// was written or remapped at this node, the VMA set changed, Now() >= until,
// or the round's charges would fall due inside it. Virtual time, events and
// every counter are those of the loop.
//
// What it compares against is armed as it returns, so the caller's round that
// precedes a call is covered by the watch: a write that lands while that round
// is under way is seen at the next wake-up. A first call, and one whose addrs,
// n or node differ from the last, has nothing armed and is one Sleep(period).
func (th *Thread) PollIdle(period, until time.Duration, addrs []mem.Addr, n int) {
	if period <= 0 {
		return
	}
	p := th.idle
	if p == nil {
		p = &idlePoll{th: th}
		p.again = p.round
		th.idle = p
	}
	if p.armed && p.node == th.node && p.n == n && slices.Equal(p.addrs, addrs) {
		p.period, p.until = period, until
		p.charge = time.Duration(len(addrs)) * th.smallCost(n)
		th.task.SleepWhile(period, p.again)
	} else {
		th.task.Sleep(period)
	}
	p.arm(addrs, n)
}

// idlePoll is a thread's PollIdle state: what the call in progress was asked,
// and the watch armed when the last one returned.
type idlePoll struct {
	th    *Thread
	again func() (time.Duration, bool) // round, bound once

	period, until time.Duration
	charge        time.Duration // what one round adds to the thread's batch

	// The watch: the reads it stands for, and the generations of what they
	// depend on. armed says every read would succeed on a present page.
	armed  bool
	node   int
	addrs  []mem.Addr
	n      int
	set    *mem.VMASet
	setGen uint64
	pt     *mem.PageTable
	pages  []watchedPage // one per page a round touches, in access order
}

type watchedPage struct {
	vpn uint64
	pte *mem.PTE
	gen uint32
}

// round is SleepWhile's question at a wake-up: make the round here if nothing
// it reads can have changed and nothing else is due, else hand it to the
// caller.
func (p *idlePoll) round() (time.Duration, bool) {
	th := p.th
	if th.task.Now() >= p.until || th.pending+p.charge >= smallFlush || p.set.Gen() != p.setGen {
		return 0, false
	}
	for i := range p.pages {
		if w := &p.pages[i]; w.pte.Gen != w.gen {
			return 0, false
		}
	}
	for i := range p.pages {
		p.pt.LookupFast(p.pages[i].vpn, false)
	}
	th.pending += p.charge
	return p.period, true
}

// arm records what a round of n-byte reads at addrs depends on at the thread's
// node. It leaves the watch unarmed when a read would do more than hit a
// present page and add to the batch: a large access, an address the node's VMA
// set does not let it read, a page that is not mapped here.
func (p *idlePoll) arm(addrs []mem.Addr, n int) {
	th := p.th
	p.armed = false
	p.node, p.n = th.node, n
	p.addrs = append(p.addrs[:0], addrs...)
	p.pages = p.pages[:0]
	if n <= 0 || n > smallAccess {
		return
	}
	p.set = th.proc.vmaSetFor(th.node)
	p.setGen = p.set.Gen()
	p.pt = th.proc.mgr.PageTable(th.node)
	for _, a := range addrs {
		end := a + mem.Addr(n)
		for c := a; c < end; {
			v, ok := p.set.Find(c)
			if !ok || !v.Prot.CanRead() {
				return
			}
			c = v.End()
		}
		for vpn := a.VPN(); vpn <= (end - 1).VPN(); vpn++ {
			pte := p.pt.Lookup(vpn)
			if pte == nil || !pte.Present {
				return
			}
			p.pages = append(p.pages, watchedPage{vpn: vpn, pte: pte, gen: pte.Gen})
		}
	}
	p.armed = true
}
