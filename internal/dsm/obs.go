package dsm

import (
	"strconv"

	"dex/internal/mem"
	"dex/internal/obs"
)

// The fault-level spans are the one record of a consistency event (the
// paper's trace tuple, §IV-A). emitFault is their only writer, FaultFromSpan
// their only reader, and nothing else knows the layout.

var faultKinds = map[string]Kind{obs.FaultRead: KindRead, obs.FaultWrite: KindWrite, obs.Invalidate: KindInvalidate}

// emitFault records ev as completing now at ev.Node. A fault is a span from
// trap entry to PTE install plus a latency observation under the same name; an
// invalidation is an instant.
func (m *Manager) emitFault(ev FaultEvent) {
	rec := m.rec
	if rec == nil {
		return
	}
	addr := obs.Hex("addr", uint64(ev.Addr))
	if ev.Kind == KindInvalidate {
		rec.SpanAt("dsm", obs.Invalidate, ev.Node, ev.Task, rec.Now(), 0, addr)
		return
	}
	name := obs.FaultRead
	if ev.Kind == KindWrite {
		name = obs.FaultWrite
	}
	rec.SpanAt("dsm", name, ev.Node, ev.Task, rec.Now()-ev.Latency, ev.Latency,
		addr, obs.Int("retries", int64(ev.Retries)), obs.String("site", ev.Site))
	rec.Observe(name, ev.Latency)
}

// emitInvalidate records an invalidation applied at node.
func (m *Manager) emitInvalidate(node int, vpn uint64) {
	m.emitFault(FaultEvent{Node: node, Task: -1, Kind: KindInvalidate, Addr: mem.Addr(vpn << mem.PageShift)})
}

// FaultFromSpan decodes a fault-level span back into the event emitFault
// was given, Time being when it completed; ok is false for any other span.
func FaultFromSpan(s obs.Span) (ev FaultEvent, ok bool) {
	kind, ok := faultKinds[s.Name]
	if !ok || s.Cat != "dsm" {
		return FaultEvent{}, false
	}
	ev = FaultEvent{Time: s.End(), Node: s.Node, Task: s.Task, Kind: kind, Latency: s.Dur}
	for _, a := range s.Args {
		var err error
		switch a.Key {
		case "addr":
			var v uint64
			v, err = strconv.ParseUint(a.Val, 0, 64)
			ev.Addr = mem.Addr(v)
		case "retries":
			ev.Retries, err = strconv.Atoi(a.Val)
		case "site":
			ev.Site = a.Val
		}
		if err != nil {
			return FaultEvent{}, false
		}
	}
	return ev, true
}
