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
//   - Simulated clocks only. Every timestamp comes from the engine's virtual
//     clock (bound per lane with SetLaneClock, or SetClock for use without
//     lanes); wall time never enters the record, so traces are bit-for-bit
//     reproducible for a fixed seed.
//   - One buffer, lane views. A simulation runs on one goroutine, so spans
//     and histograms live in one place; ConfigureLanes only adds a view per
//     simulator lane, and OnLane returns the view for the lane an event
//     executes on — it knows that lane's clock and index.
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

// spanRec is a recorded span plus its export key: the lane clock at
// recording time (the executing event's timestamp) and the lane it was
// recorded on.
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

// recCore is the record shared by every lane view of one recorder.
type recCore struct {
	views        []*Recorder // [0] = global/default, [i+1] = node i
	spans        []spanRec   // in emission order
	hists        map[string]*Histogram
	gauges       []gauge
	samples      []sample
	samplePeriod time.Duration
	// faultsOnly drops every span but the fault-level ones (NewFaultRecorder).
	faultsOnly bool
}

// Recorder accumulates spans, histograms, and samples for one simulated run.
// It is a lane-bound view over a shared record: NewRecorder returns the
// global/default view, ConfigureLanes adds one per node, and OnLane selects
// the view for the lane an event is executing on, which stamps what it
// records with that lane's clock and index. A nil *Recorder is the disabled
// recorder: every method is a no-op.
type Recorder struct {
	c     *recCore
	lane  int // 0 = global/default, i+1 = node i
	clock func() time.Duration
}

// NewRecorder returns an empty recorder (the global view, the only one until
// ConfigureLanes is called). Bind it to a simulation with
// SetLaneClock/SetClock before recording (the dex layer does this when the
// cluster is built).
func NewRecorder() *Recorder {
	c := &recCore{samplePeriod: DefaultSamplePeriod, hists: make(map[string]*Histogram)}
	r := &Recorder{c: c}
	c.views = []*Recorder{r}
	return r
}

// NewFaultRecorder returns a recorder that drops every span but the
// fault-level ones and takes no gauge samples (histograms, being fixed-size,
// are kept): all the page-fault profile reads, at a fraction of a full
// recorder's time and memory on a long run.
func NewFaultRecorder() *Recorder {
	r := NewRecorder()
	r.c.samplePeriod, r.c.faultsOnly = 0, true
	return r
}

// ConfigureLanes adds a view per node lane of a simulation with nodes node
// lanes: view 0 stays the global lane's and view i+1 becomes node i's. It
// must be called before any per-lane recording and at most once.
func (r *Recorder) ConfigureLanes(nodes int) {
	if r == nil {
		return
	}
	c := r.c
	if len(c.views) > 1 {
		panic("obs: ConfigureLanes called twice")
	}
	for i := 0; i < nodes; i++ {
		c.views = append(c.views, &Recorder{c: c, lane: i + 1})
	}
}

// OnLane returns the recorder view bound to node's lane (negative for the
// global lane). Instrumentation must record through the view of the lane the
// current event executes on; an out-of-range node falls back to the global
// view, so recorders without lanes keep working unchanged.
func (r *Recorder) OnLane(node int) *Recorder {
	if r == nil {
		return nil
	}
	c := r.c
	if node < 0 || node+1 >= len(c.views) {
		return c.views[0]
	}
	return c.views[node+1]
}

// SetClock binds this view to the simulation's virtual clock. For a recorder
// with lanes the dex layer binds every lane with SetLaneClock; users without
// lanes bind just the default view here.
func (r *Recorder) SetClock(now func() time.Duration) {
	if r == nil {
		return
	}
	r.clock = now
}

// SetLaneClock binds node's view (negative: the global view) to that lane's
// clock, which reads the lane-local time while the lane executes a window.
func (r *Recorder) SetLaneClock(node int, now func() time.Duration) {
	if r == nil {
		return
	}
	r.OnLane(node).SetClock(now)
}

// Now returns the current simulated time as seen by this view's lane, or 0
// before a clock is bound.
func (r *Recorder) Now() time.Duration {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// SamplePeriod returns the gauge sampling interval.
func (r *Recorder) SamplePeriod() time.Duration {
	if r == nil {
		return 0
	}
	return r.c.samplePeriod
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
	if r.c.faultsOnly && name != FaultRead && name != FaultWrite && name != Invalidate {
		return
	}
	if dur < 0 {
		dur = 0
	}
	r.c.spans = append(r.c.spans, spanRec{
		Span: Span{
			Cat:   cat,
			Name:  name,
			Node:  node,
			Task:  task,
			Start: start,
			Dur:   dur,
			Args:  args,
		},
		at:   r.Now(),
		lane: r.lane,
	})
}

// Spans returns the recorded spans in (record time, lane, emission) order.
// The record time is the executing event's timestamp and the emission order
// within one lane is that lane's event order — properties of the simulated
// schedule, not of the order in which the lanes of a window happened to run.
func (r *Recorder) Spans() []Span {
	if r == nil || len(r.c.spans) == 0 {
		return nil
	}
	recs := r.c.spans
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
	h, ok := r.c.hists[name]
	if !ok {
		h = &Histogram{Name: name}
		r.c.hists[name] = h
	}
	h.Observe(d)
}

// Histogram returns the named histogram, or nil if nothing was observed
// under that name.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.c.hists[name]
}

// Histograms returns all histograms, sorted by name.
func (r *Recorder) Histograms() []*Histogram {
	if r == nil || len(r.c.hists) == 0 {
		return nil
	}
	out := make([]*Histogram, 0, len(r.c.hists))
	for _, h := range r.c.hists {
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
	r.c.gauges = append(r.c.gauges, gauge{name: name, node: -1, fn: fn})
}

// AddNodeGauge registers a per-node gauge; its samples render on that node's
// Perfetto process track.
func (r *Recorder) AddNodeGauge(name string, node int, fn func() float64) {
	if r == nil {
		return
	}
	r.c.gauges = append(r.c.gauges, gauge{name: name, node: node, fn: fn})
}

// SampleNowAt reads every registered gauge and appends one row per gauge to
// the time series, stamped at. The engine's window sampler calls it between
// scheduler windows, where every lane's state is committed.
func (r *Recorder) SampleNowAt(at time.Duration) {
	if r == nil {
		return
	}
	c := r.c
	for i := range c.gauges {
		c.samples = append(c.samples, sample{At: at, Gauge: i, Val: c.gauges[i].fn()})
	}
}

// Samples reports how many gauge observations were recorded.
func (r *Recorder) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.c.samples)
}
