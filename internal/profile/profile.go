// Package profile implements DeX's page-fault profiling tool (§IV-A of the
// paper). It reads the trace of every page fault the memory consistency
// protocol handled — time, node, task, fault type, program site, faulting
// address — out of the run's observability recorder and post-processes it
// into the analyses the paper describes:
// the program objects and source locations causing the most faults, fault
// frequency over time, per-thread access patterns, and per-page contention.
package profile

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dex/internal/dsm"
	"dex/internal/mem"
	"dex/internal/obs"
)

// Trace is the page-fault profile of one run: its fault events, in the
// recorder's merged order, and the analyses over them.
type Trace struct {
	events  []dsm.FaultEvent
	regions []mem.VMA // sorted by Start, as core.Report.Regions is
}

// FromRecorder decodes the fault-level spans rec holds into a trace. Call it
// once the run is over; a full recorder and a fault recorder
// (obs.NewFaultRecorder) of the same run give the same trace.
func FromRecorder(rec *obs.Recorder) *Trace {
	tr := &Trace{}
	for _, s := range rec.Spans() {
		if ev, ok := dsm.FaultFromSpan(s); ok {
			tr.events = append(tr.events, ev)
		}
	}
	return tr
}

// SetRegions names the trace's addresses after the program objects they
// fall in: regions are the profiled process's mappings, sorted by address,
// as its report lists them (core.Report.Regions).
func (tr *Trace) SetRegions(regions []mem.VMA) { tr.regions = regions }

// Events returns the recorded events in order.
func (tr *Trace) Events() []dsm.FaultEvent { return tr.events }

// Len returns the number of recorded events.
func (tr *Trace) Len() int { return len(tr.events) }

func (tr *Trace) label(a mem.Addr) string {
	i := sort.Search(len(tr.regions), func(i int) bool { return tr.regions[i].End() > a })
	if i < len(tr.regions) && tr.regions[i].Contains(a) && tr.regions[i].Label != "" {
		return tr.regions[i].Label
	}
	return "?"
}

// Count is a generic (key, faults) pair produced by the top-N analyses.
type Count struct {
	Key    string
	Reads  uint64
	Writes uint64
	Invals uint64
}

// Total returns the total events for the key.
func (c Count) Total() uint64 { return c.Reads + c.Writes + c.Invals }

func accumulate(events []dsm.FaultEvent, key func(dsm.FaultEvent) string) []Count {
	idx := make(map[string]int)
	var out []Count
	for _, ev := range events {
		k := key(ev)
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Count{Key: k})
		}
		switch ev.Kind {
		case dsm.KindRead:
			out[i].Reads++
		case dsm.KindWrite:
			out[i].Writes++
		case dsm.KindInvalidate:
			out[i].Invals++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func top(counts []Count, n int) []Count {
	if n > 0 && len(counts) > n {
		counts = counts[:n]
	}
	return counts
}

// TopSites returns the program sites causing the most protocol events.
func (tr *Trace) TopSites(n int) []Count {
	return top(accumulate(tr.events, func(ev dsm.FaultEvent) string {
		if ev.Site == "" {
			return "(kernel)"
		}
		return ev.Site
	}), n)
}

// TopRegions returns the program objects (labeled memory regions) causing
// the most protocol events.
func (tr *Trace) TopRegions(n int) []Count {
	return top(accumulate(tr.events, func(ev dsm.FaultEvent) string {
		return tr.label(ev.Addr)
	}), n)
}

// PageContention describes protocol activity on one page.
type PageContention struct {
	Page   mem.Addr
	Label  string
	Reads  uint64
	Writes uint64
	Invals uint64
	Nodes  int // distinct nodes that faulted on the page
}

// Total returns total events on the page.
func (p PageContention) Total() uint64 { return p.Reads + p.Writes + p.Invals }

// TopPages returns the most contended pages: pages touched from several
// nodes with a write/invalidate mix are false-sharing suspects (§IV-B).
func (tr *Trace) TopPages(n int) []PageContention {
	type acc struct {
		pc    PageContention
		nodes map[int]struct{}
	}
	idx := make(map[mem.Addr]*acc)
	var order []mem.Addr
	for _, ev := range tr.events {
		page := ev.Addr.PageBase()
		a, ok := idx[page]
		if !ok {
			a = &acc{pc: PageContention{Page: page, Label: tr.label(page)}, nodes: make(map[int]struct{})}
			idx[page] = a
			order = append(order, page)
		}
		a.nodes[ev.Node] = struct{}{}
		switch ev.Kind {
		case dsm.KindRead:
			a.pc.Reads++
		case dsm.KindWrite:
			a.pc.Writes++
		case dsm.KindInvalidate:
			a.pc.Invals++
		}
	}
	out := make([]PageContention, 0, len(order))
	for _, page := range order {
		a := idx[page]
		a.pc.Nodes = len(a.nodes)
		out = append(out, a.pc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Page < out[j].Page
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TimeBucket is one bin of the fault-frequency-over-time analysis.
type TimeBucket struct {
	Start  time.Duration
	Faults int
}

// Timeline bins fault events into fixed-width buckets.
func (tr *Trace) Timeline(width time.Duration) []TimeBucket {
	if width <= 0 || len(tr.events) == 0 {
		return nil
	}
	// Events complete out of order; find the latest timestamp.
	var end time.Duration
	for _, ev := range tr.events {
		if ev.Time > end {
			end = ev.Time
		}
	}
	n := int(end/width) + 1
	out := make([]TimeBucket, n)
	for i := range out {
		out[i].Start = time.Duration(i) * width
	}
	for _, ev := range tr.events {
		out[ev.Time/width].Faults++
	}
	return out
}

// ThreadPattern summarizes one (node, task) context's access behaviour.
type ThreadPattern struct {
	Node, Task    int
	Reads, Writes uint64
	Pages         int // distinct pages touched
}

// PerThread returns per-(node, task) access patterns, ordered by activity.
func (tr *Trace) PerThread() []ThreadPattern {
	type acc struct {
		tp    ThreadPattern
		pages map[mem.Addr]struct{}
	}
	type key struct{ node, task int }
	idx := make(map[key]*acc)
	var order []key
	for _, ev := range tr.events {
		if ev.Kind == dsm.KindInvalidate {
			continue
		}
		k := key{ev.Node, ev.Task}
		a, ok := idx[k]
		if !ok {
			a = &acc{tp: ThreadPattern{Node: ev.Node, Task: ev.Task}, pages: make(map[mem.Addr]struct{})}
			idx[k] = a
			order = append(order, k)
		}
		a.pages[ev.Addr.PageBase()] = struct{}{}
		if ev.Kind == dsm.KindRead {
			a.tp.Reads++
		} else {
			a.tp.Writes++
		}
	}
	out := make([]ThreadPattern, 0, len(order))
	for _, k := range order {
		a := idx[k]
		a.tp.Pages = len(a.pages)
		out = append(out, a.tp)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Reads+out[i].Writes, out[j].Reads+out[j].Writes
		if ti != tj {
			return ti > tj
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// Summary aggregates the whole trace.
type Summary struct {
	Total        int
	Reads        uint64
	Writes       uint64
	Invals       uint64
	Retried      int
	AvgLatency   time.Duration
	SlowFraction float64 // fraction of faults slower than 40µs (retry mode)
}

// Summarize computes the trace summary.
func (tr *Trace) Summarize() Summary {
	var s Summary
	var latSum time.Duration
	var latN int
	for _, ev := range tr.events {
		s.Total++
		switch ev.Kind {
		case dsm.KindRead:
			s.Reads++
		case dsm.KindWrite:
			s.Writes++
		case dsm.KindInvalidate:
			s.Invals++
			continue
		}
		latSum += ev.Latency
		latN++
		if ev.Retries > 0 {
			s.Retried++
		}
		if ev.Latency > 40*time.Microsecond {
			s.SlowFraction++
		}
	}
	if latN > 0 {
		s.AvgLatency = latSum / time.Duration(latN)
		s.SlowFraction /= float64(latN)
	}
	return s
}

// Report writes a human-readable profiling report covering every analysis,
// in the spirit of the paper's post-processing tool.
func (tr *Trace) Report(w io.Writer, topN int) {
	s := tr.Summarize()
	fmt.Fprintf(w, "=== DeX page-fault profile ===\n")
	fmt.Fprintf(w, "events: %d  (reads %d, writes %d, invalidations %d)\n", s.Total, s.Reads, s.Writes, s.Invals)
	fmt.Fprintf(w, "avg fault latency: %v   retried: %d   slow fraction: %.1f%%\n\n",
		s.AvgLatency.Round(100*time.Nanosecond), s.Retried, 100*s.SlowFraction)

	fmt.Fprintf(w, "--- top program objects (regions) ---\n")
	for _, c := range tr.TopRegions(topN) {
		fmt.Fprintf(w, "%10d  %-30s (r %d / w %d / inv %d)\n", c.Total(), c.Key, c.Reads, c.Writes, c.Invals)
	}
	fmt.Fprintf(w, "\n--- top fault sites ---\n")
	for _, c := range tr.TopSites(topN) {
		fmt.Fprintf(w, "%10d  %-30s (r %d / w %d)\n", c.Total(), c.Key, c.Reads, c.Writes)
	}
	fmt.Fprintf(w, "\n--- most contended pages ---\n")
	for _, pc := range tr.TopPages(topN) {
		fmt.Fprintf(w, "%10d  %v %-24s nodes=%d (r %d / w %d / inv %d)\n",
			pc.Total(), pc.Page, pc.Label, pc.Nodes, pc.Reads, pc.Writes, pc.Invals)
	}
	fmt.Fprintf(w, "\n--- correlated write/read site pairs (§IV-C) ---\n")
	for _, p := range tr.CorrelatedSites(topN) {
		fmt.Fprintf(w, "%10d  %s writes -> %s reads (%d shared pages, w %d / r %d)\n",
			p.Writes+p.Reads, p.WriteSite, p.ReadSite, p.Pages, p.Writes, p.Reads)
	}
	fmt.Fprintf(w, "\n--- per-thread patterns ---\n")
	pt := tr.PerThread()
	if topN > 0 && len(pt) > topN {
		pt = pt[:topN]
	}
	for _, p := range pt {
		fmt.Fprintf(w, "node %d task %3d: %6d reads %6d writes over %d pages\n",
			p.Node, p.Task, p.Reads, p.Writes, p.Pages)
	}
}
