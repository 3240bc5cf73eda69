// Package obs is the unified observability layer for the DeX simulator: a
// tracing and metrics recorder keyed to simulated time. The protocol layers
// (fabric, dsm, core) emit spans — named intervals with a node/task identity
// and ordered key/value arguments — for the lifecycle of the three macro
// operations (fault handling, thread migration, fabric messages), plus
// log-bucketed latency histograms and a periodic time-series of gauges
// (resident pages, TLB hit rate, in-flight faults).
//
// Design rules:
//
//   - Zero overhead when disabled. A nil *Recorder is a valid recorder whose
//     methods do nothing; instrumentation points guard with a single
//     `if rec != nil` branch.
//   - Simulated clocks only. Every timestamp comes from the virtual clock of
//     the simulation the recorder is bound to (Bind); wall time never enters
//     the record, so traces are bit-for-bit reproducible for a fixed seed.
//   - One buffer, no views. A simulation runs on one goroutine, so spans and
//     histograms live in one place, and the simulation says which lane's
//     event is executing: a span is stamped with that lane and its clock
//     wherever the call is written.
//   - Deterministic export. Spans come out in (record time, lane, emission)
//     order, which does not depend on the order the lanes of a window ran in;
//     histograms use integer-only power-of-two bucketing, and the Perfetto
//     writer (perfetto.go) formats every number with integer arithmetic: the
//     same seed produces byte-identical JSON.
package obs

import (
	"cmp"
	"slices"
	"strconv"
	"time"
)

// Arg is one ordered key/value pair attached to a span. Values are kept as
// pre-rendered strings so export needs no reflection and stays deterministic.
type Arg struct {
	Key string
	Val string
}

// String builds a string-valued arg.
func String(key, val string) Arg { return Arg{Key: key, Val: val} }

// Int builds an integer-valued arg.
func Int(key string, val int64) Arg { return Arg{Key: key, Val: strconv.FormatInt(val, 10)} }

// Hex builds a hexadecimal arg (addresses, VPNs).
func Hex(key string, val uint64) Arg { return Arg{Key: key, Val: "0x" + strconv.FormatUint(val, 16)} }

// Span is one completed interval on the simulated timeline. Node maps to the
// Perfetto process (pid) and Task to the thread (tid) so per-node timelines
// render as process tracks.
type Span struct {
	Cat   string // taxonomy: "dsm", "fabric", "core", "chaos"
	Name  string // e.g. "fault.write", "msg.small", "migrate.forward"
	Node  int
	Task  int
	Start time.Duration
	Dur   time.Duration
	Args  []Arg
}

// The fault-level span names: one span per consistency event (a completed
// read or write fault, an applied invalidation), written and decoded by
// internal/dsm. They are all a fault recorder (NewFaultRecorder) keeps.
const (
	FaultRead  = "fault.read"
	FaultWrite = "fault.write"
	Invalidate = "invalidate"
)

// End returns the span's end time.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// spanRec is a recorded span plus its export key: the executing event's
// timestamp and lane at recording time.
type spanRec struct {
	Span
	at   time.Duration
	lane int
}

// sample is one gauge observation on the time series.
type sample struct {
	At    time.Duration
	Gauge int // index into gauges
	Val   float64
}

// gauge is a named instantaneous metric sampled periodically.
type gauge struct {
	name string
	node int // -1 for process-wide gauges
	fn   func() float64
}

// DefaultSamplePeriod is the sampler tick of a full recorder.
const DefaultSamplePeriod = 100 * time.Microsecond

// Sim is what a recorder reads of the simulation it is bound to: the virtual
// clock and the lane whose event is executing (negative for the global lane
// and between events). *sim.Engine is one.
type Sim interface {
	Now() time.Duration
	ExecutingLane() int
}

// Recorder accumulates spans, histograms, and samples for one simulated run.
// A nil *Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	sim          Sim       // nil until Bind: every span at time 0
	spans        []spanRec // in emission order
	hists        map[string]*Histogram
	gauges       []gauge
	samples      []sample
	samplePeriod time.Duration
	// faultsOnly drops every span but the fault-level ones (NewFaultRecorder).
	faultsOnly bool
}

// NewRecorder returns an empty recorder. Bind it to a simulation before
// recording (core.NewMachine does, for the recorder in its Params).
func NewRecorder() *Recorder {
	return &Recorder{samplePeriod: DefaultSamplePeriod, hists: make(map[string]*Histogram)}
}

// NewFaultRecorder returns a recorder that drops every span but the
// fault-level ones and takes no gauge samples (histograms, being fixed-size,
// are kept): all the page-fault profile reads, at a fraction of a full
// recorder's time and memory on a long run.
func NewFaultRecorder() *Recorder {
	r := NewRecorder()
	r.samplePeriod, r.faultsOnly = 0, true
	return r
}

// Bind makes sim the source of every timestamp and lane the recorder stamps.
func (r *Recorder) Bind(sim Sim) {
	if r == nil {
		return
	}
	r.sim = sim
}

// ConfigureLanes does nothing and OnLane returns its receiver: the recorder
// has no lane views, the simulation it is bound to knows which lane is
// executing. Both exist only because the frozen benchmark/probes/probes.go
// calls them; they go when the benchmark is next unfrozen (ROADMAP item 8).
func (r *Recorder) ConfigureLanes(int) {}

// OnLane returns r; see ConfigureLanes.
func (r *Recorder) OnLane(int) *Recorder { return r }

// Now returns the current simulated time, or 0 before the recorder is bound.
func (r *Recorder) Now() time.Duration {
	if r == nil || r.sim == nil {
		return 0
	}
	return r.sim.Now()
}

// SamplePeriod returns the gauge sampling interval.
func (r *Recorder) SamplePeriod() time.Duration {
	if r == nil {
		return 0
	}
	return r.samplePeriod
}

// Span records a completed interval that started at start and ends now.
func (r *Recorder) Span(cat, name string, node, task int, start time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	end := r.Now()
	r.SpanAt(cat, name, node, task, start, end-start, args...)
}

// SpanAt records a completed interval with an explicit start and duration.
func (r *Recorder) SpanAt(cat, name string, node, task int, start, dur time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	if r.faultsOnly && name != FaultRead && name != FaultWrite && name != Invalidate {
		return
	}
	rec := spanRec{
		Span: Span{
			Cat:   cat,
			Name:  name,
			Node:  node,
			Task:  task,
			Start: start,
			Dur:   max(dur, 0),
			Args:  args,
		},
	}
	if r.sim != nil {
		rec.at, rec.lane = r.sim.Now(), r.sim.ExecutingLane()
	}
	r.spans = append(r.spans, rec)
}

// Spans returns the recorded spans in (record time, lane, emission) order.
// The record time is the executing event's timestamp and the emission order
// within one lane is that lane's event order — properties of the simulated
// schedule, not of the order in which the lanes of a window happened to run.
func (r *Recorder) Spans() []Span {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	recs := r.spans
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := &recs[i], &recs[j]
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.lane, b.lane), cmp.Compare(i, j))
	})
	out := make([]Span, len(order))
	for i, k := range order {
		out[i] = recs[k].Span
	}
	return out
}

// Observe adds one latency observation to the named histogram, creating it
// on first use.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{Name: name}
		r.hists[name] = h
	}
	h.Observe(d)
}

// Histogram returns the named histogram, or nil if nothing was observed
// under that name.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// Histograms returns all histograms, sorted by name.
func (r *Recorder) Histograms() []*Histogram {
	if r == nil || len(r.hists) == 0 {
		return nil
	}
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	slices.SortFunc(out, func(a, b *Histogram) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// AddGauge registers a process-wide gauge sampled on every sampler tick.
func (r *Recorder) AddGauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name: name, node: -1, fn: fn})
}

// AddNodeGauge registers a per-node gauge; its samples render on that node's
// Perfetto process track.
func (r *Recorder) AddNodeGauge(name string, node int, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name: name, node: node, fn: fn})
}

// SampleNowAt reads every registered gauge and appends one row per gauge to
// the time series, stamped at. The engine's window sampler calls it between
// scheduler windows, where every lane's state is committed.
func (r *Recorder) SampleNowAt(at time.Duration) {
	if r == nil {
		return
	}
	for i := range r.gauges {
		r.samples = append(r.samples, sample{At: at, Gauge: i, Val: r.gauges[i].fn()})
	}
}

// Samples reports how many gauge observations were recorded.
func (r *Recorder) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.samples)
}
