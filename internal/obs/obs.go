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
//     clock (bound per lane with SetLaneClock, or SetClock for unsharded
//     use); wall time never enters the record, so traces are bit-for-bit
//     reproducible for a fixed seed.
//   - Lane-safe without locks. ConfigureLanes shards the recorder into one
//     buffer per simulator lane; OnLane returns the view for the lane an
//     event executes on, and each lane appends only to its own shard, so
//     recording is race-free under the conservative-parallel scheduler with
//     no hot-path synchronization.
//   - Deterministic export. Shards merge in (time, lane, emission-sequence)
//     order — each component is a pure function of the simulated schedule,
//     not of worker timing — histograms use integer-only power-of-two
//     bucketing, and the Perfetto writer (perfetto.go) formats every number
//     with integer arithmetic: the same seed produces byte-identical JSON at
//     any core count.
package obs

import (
	"sort"
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

// spanRec is a recorded span plus its shard-local merge key: the lane clock
// at recording time (the executing event's timestamp, identical in serial
// and parallel execution) and the shard's emission sequence.
type spanRec struct {
	Span
	at  time.Duration
	seq uint64
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

// DefaultSamplePeriod is the sampler tick used when none is configured.
const DefaultSamplePeriod = 100 * time.Microsecond

// shard is one lane's private slice of the record. Only the goroutine
// executing that lane's events appends to it; merging happens at export
// time, when every lane is quiescent.
type shard struct {
	clock     func() time.Duration
	spans     []spanRec
	hists     map[string]*Histogram
	histOrder []string
	seq       uint64
}

func newShard() *shard {
	return &shard{hists: make(map[string]*Histogram)}
}

// recCore is the state shared by every lane view of one recorder. Gauges and
// samples stay core-owned: they are registered before the run and sampled
// only between scheduler windows, with all lanes quiescent.
type recCore struct {
	shards       []*shard    // [0] = global/default, [i+1] = node i
	views        []*Recorder // preallocated lane views, same indexing
	gauges       []gauge
	samples      []sample
	samplePeriod time.Duration
	// faultsOnly drops every span but the fault-level ones (NewFaultRecorder).
	faultsOnly bool
}

// Recorder accumulates spans, histograms, and samples for one simulated run.
// It is a lane-bound view over a shared core: NewRecorder returns the
// global/default view, ConfigureLanes adds per-node shards, and OnLane
// selects the view for the lane an event is executing on. Recording through
// the executing lane's view is what makes the recorder race-free under the
// parallel scheduler — each lane appends only to its own shard. A nil
// *Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	c    *recCore
	lane int // shard index: 0 = global/default, i+1 = node i
}

// NewRecorder returns an empty recorder (the global view, with a single
// shard until ConfigureLanes is called). Bind it to a simulation with
// SetLaneClock/SetClock before recording (the dex layer does this when the
// cluster is built).
func NewRecorder() *Recorder {
	c := &recCore{samplePeriod: DefaultSamplePeriod}
	c.shards = []*shard{newShard()}
	r := &Recorder{c: c, lane: 0}
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

// ConfigureLanes shards the recorder for a simulation with nodes node lanes:
// shard 0 stays the global lane's buffer and shard i+1 becomes node i's.
// It must be called before any per-lane recording and at most once.
func (r *Recorder) ConfigureLanes(nodes int) {
	if r == nil {
		return
	}
	c := r.c
	if len(c.shards) > 1 {
		panic("obs: ConfigureLanes called twice")
	}
	for i := 0; i < nodes; i++ {
		c.shards = append(c.shards, newShard())
		c.views = append(c.views, &Recorder{c: c, lane: i + 1})
	}
}

// OnLane returns the recorder view bound to node's lane (negative for the
// global lane). Instrumentation must record through the view of the lane the
// current event executes on; an out-of-range node falls back to the global
// view, so unsharded recorders keep working unchanged.
func (r *Recorder) OnLane(node int) *Recorder {
	if r == nil {
		return nil
	}
	c := r.c
	if node < 0 || node+1 >= len(c.shards) {
		return c.views[0]
	}
	return c.views[node+1]
}

// SetClock binds this view's shard to the simulation's virtual clock. For
// sharded recorders the dex layer binds every lane with SetLaneClock; plain
// serial users bind just the default shard here.
func (r *Recorder) SetClock(now func() time.Duration) {
	if r == nil {
		return
	}
	r.c.shards[r.lane].clock = now
}

// SetLaneClock binds node's shard (negative: the global shard) to that
// lane's clock, which reads the lane-local time during parallel windows.
func (r *Recorder) SetLaneClock(node int, now func() time.Duration) {
	if r == nil {
		return
	}
	r.OnLane(node).SetClock(now)
}

// Now returns the current simulated time as seen by this view's lane, or 0
// before a clock is bound.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	clock := r.c.shards[r.lane].clock
	if clock == nil {
		return 0
	}
	return clock()
}

// SetSamplePeriod sets the gauge sampling interval (0 disables sampling).
func (r *Recorder) SetSamplePeriod(d time.Duration) {
	if r == nil {
		return
	}
	r.c.samplePeriod = d
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
	s := r.c.shards[r.lane]
	s.seq++
	s.spans = append(s.spans, spanRec{
		Span: Span{
			Cat:   cat,
			Name:  name,
			Node:  node,
			Task:  task,
			Start: start,
			Dur:   dur,
			Args:  args,
		},
		at:  r.Now(),
		seq: s.seq,
	})
}

// Spans returns the recorded spans of every shard merged in deterministic
// (record time, lane, shard sequence) order. The record time is the
// executing event's timestamp and the shard sequence its emission order
// within the lane — both are properties of the simulated schedule, not of
// worker-thread timing, so the merged order is identical at any core count.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	c := r.c
	total := 0
	for _, s := range c.shards {
		total += len(s.spans)
	}
	if total == 0 {
		return nil
	}
	type keyed struct {
		at   time.Duration
		lane int
		seq  uint64
		span *spanRec
	}
	all := make([]keyed, 0, total)
	for lane, s := range c.shards {
		for i := range s.spans {
			rec := &s.spans[i]
			all = append(all, keyed{at: rec.at, lane: lane, seq: rec.seq, span: rec})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.seq < b.seq
	})
	out := make([]Span, len(all))
	for i, k := range all {
		out[i] = k.span.Span
	}
	return out
}

// Observe adds one latency observation to the named histogram of this
// view's shard, creating it on first use. Shards merge at read time.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	s := r.c.shards[r.lane]
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{Name: name}
		s.hists[name] = h
		s.histOrder = append(s.histOrder, name)
	}
	h.Observe(d)
}

// Histogram returns the named histogram merged across all shards, or nil if
// nothing was observed under that name.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	var out *Histogram
	for _, s := range r.c.shards {
		if h, ok := s.hists[name]; ok {
			if out == nil {
				out = &Histogram{Name: name}
			}
			out.merge(h)
		}
	}
	return out
}

// Histograms returns all histograms, merged across shards, sorted by name.
func (r *Recorder) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var names []string
	for _, s := range r.c.shards {
		for _, n := range s.histOrder {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	out := make([]*Histogram, len(names))
	for i, n := range names {
		out[i] = r.Histogram(n)
	}
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
// scheduler windows — the one point where all lanes are quiescent, so the
// reads are race-free and see the same barrier-committed state at any core
// count.
func (r *Recorder) SampleNowAt(at time.Duration) {
	if r == nil {
		return
	}
	c := r.c
	for i := range c.gauges {
		c.samples = append(c.samples, sample{At: at, Gauge: i, Val: c.gauges[i].fn()})
	}
}

// SampleNow samples every gauge at the current simulated time.
func (r *Recorder) SampleNow() {
	if r == nil {
		return
	}
	r.SampleNowAt(r.Now())
}

// Samples reports how many gauge observations were recorded.
func (r *Recorder) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.c.samples)
}
