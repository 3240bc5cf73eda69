// Package sim provides a deterministic discrete-event simulation engine
// that orders its events by lane and lookahead window.
//
// The engine advances a virtual clock over priority queues of events. Tasks
// are cooperative coroutines: a task's code runs on an iter.Pull coroutine,
// and Run's goroutine switches into it directly (runtime coroswitch) and is
// switched back to when the task sleeps, parks or finishes — the Go scheduler
// takes no part in a task switch. Coroutines whose task has finished wait on
// the engine's free list and serve the next task started, so steady-state
// Spawn creates no goroutine; Run stops them all, live or pooled, before it
// returns. A simulation executes on exactly one goroutine: at any moment
// either Run's loop or a single task runs, so simulation state needs no
// locking and runs are bit-for-bit reproducible for a given seed. The engine
// records the lane whose event is executing, and the clock (Now) is that
// lane's from whichever view it is read.
//
// # Events
//
// An event executes a Runner. After and AfterOn take a plain func() and are
// the convenient form; where an event fires per message or per request, prefer
// AfterRun and AfterRunOn with an object that exists anyway (the message, the
// connection, the resource) and let it implement RunEvent: a closure that
// captures anything is a heap object per event, a Runner is none, nor is a
// function bound once. So with a task's Body: Start runs a record that embeds
// its Task without allocating. Tasks ride events as they are, so Sleep and
// Unpark allocate no event state.
//
// # Lanes and windows
//
// Every event carries an affinity lane: a node index, or the global lane for
// cross-cutting events. A fabric-style minimum cross-lane latency ("lookahead"
// L, set with SetLookahead) guarantees that within a window [T, T+L) events on
// distinct node lanes cannot affect each other — any cross-node effect travels
// through the fabric and lands at least L later — so the scheduler runs window
// by window and, inside a window, lane by lane: each active lane executes its
// own events up to the window end, one lane after the other on Run's
// goroutine. A lane that runs alone asks only its own heap for its next event,
// and nothing can reach it before the window ends, so a task whose Sleep ends
// before that and before the lane's next event is that next event, and Sleep
// takes the wake-up in place (see Task.Sleep). A wake-up at which a task would
// only sleep is answered in event context, without a switch into the task
// (SleepWhile, ParkOnThenSleep, StartSleeping). A window containing a
// global-lane event is processed in full event order. Events are keyed by
// (time, target lane, creator lane, creator counter); the key order is total,
// and only provably commuting events are ever reordered. An engine without
// lanes or without a lookahead is the classic serial loop.
//
// Lane discipline for event producers:
//
//   - An event may freely schedule more events on its own lane, at any time.
//   - Scheduling onto a different lane is only legal at or after the current
//     window's end; cross-lane effects must ride a latency of at least the
//     lookahead (the fabric guarantees this for message delivery). Violations
//     panic with lane-violation context rather than corrupting the run.
//   - Global-lane events run with every other lane stopped, so they may touch
//     any state and schedule anywhere — global is always a safe fallback.
//
// Virtual time is expressed as time.Duration since the start of the run.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but live tasks are
// still parked. Use errors.Is to match it; the returned error describes the
// stuck tasks.
var ErrDeadlock = errors.New("sim: deadlock")

// ErrEventLimit is returned by Run when the configured event budget is
// exhausted, which usually indicates a livelock in the simulated system.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// GlobalLane is the lane index of cross-cutting events. Node lanes are
// numbered 0..nodes-1.
const GlobalLane = -1

// Engine is a lane-bound view of a discrete-event simulator. NewEngine
// returns the global view; LaneView derives per-node views of the same
// simulation whose events carry that node's lane. A view is scheduling
// affinity and nothing else: the clock and the executing lane are the
// engine's, the same through every view. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	c    *engineCore
	lane int // index into c.lanes: 0 = global, i+1 = node i
}

// engineCore is the state shared by all lane views of one simulation.
type engineCore struct {
	lanes []*laneState // [0] = global, [1..] = node lanes
	views []*Engine    // the one view of each lane, indexed like lanes
	// heads[i] is a lower bound on the time of lane i's earliest live event
	// (noEvent for a lane known to be empty). nextLane picks from it without
	// touching any heap and verifies the pick. A push lowers it, a serial step
	// and a window's end refresh it; a lane executing its own window asks its
	// heap instead.
	heads     []time.Duration
	lookahead time.Duration
	seed      int64

	// windowEnd is the exclusive upper bound of the window currently
	// executing; written only by the scheduler between windows, read by lanes
	// to validate cross-lane scheduling.
	windowEnd time.Duration

	// cur is the lane whose event is executing, nil between events (before
	// Run, between windows, in a sampler). Now, the lane-violation checks and
	// the in-place wake-up read it; no caller has to hold the right view.
	cur *laneState
	// running is the task cur's event has switched into, if any.
	running *Task

	// now is the committed clock, what Now returns between events: the time of
	// the last event in serial or serialized execution, and the maximum
	// completed-window time otherwise.
	now      time.Duration
	parallel bool // true while node lanes execute a window independently

	limit   uint64
	nEvents uint64 // events executed
	failure error  // the first failing event, in execution order; it ends the run

	// sched accumulates window-level scheduler telemetry, written by
	// beginWindow and the serialized execution paths.
	sched schedCounters

	// serializedWin is true while executing events of a window that holds
	// global-lane work; runSerial attributes those to SerializedEvents.
	serializedWin bool

	// samplers fire at window starts, between windows: the one point where
	// periodic observation sees every lane at a committed clock.
	samplers []sampler

	// active is beginWindow's scratch list of the lanes a window dispatches,
	// reused from window to window.
	active []*laneState

	// tasks registers the live tasks, for deadlock diagnostics and for
	// unwinding what is still suspended when Run returns. A task knows its
	// index (Task.idx); one that finishes swaps the last into its place.
	tasks []*Task

	// census counts the executed events by kind; nil unless CountEventKinds
	// was called, so an event pays one nil check for it.
	census *census

	// free holds coroutines whose task finished, ready for the next task
	// started.
	free []*coro
}

// laneState is the per-lane slice of the simulation: its event heap, clock,
// RNG stream and telemetry.
type laneState struct {
	idx   int // 0 = global, i+1 = node i
	heap  eventHeap
	now   time.Duration
	ctr   uint64 // creation counter: orders same-time events of one creator
	rng   *rand.Rand
	tombs int          // cancelled timeout events still in the heap
	spare []*tombstone // of timeout events that left the heap, for ParkTimeout

	// events, windows and inPlace are lifetime telemetry: total events executed
	// on this lane, windows in which it was dispatched, and the events among
	// them that were sleeps taken in place.
	events  uint64
	windows uint64
	inPlace uint64
}

// schedCounters is the core-owned half of the scheduler telemetry.
type schedCounters struct {
	windows           uint64
	serializedWindows uint64
	serializedEvents  uint64
	laneDispatches    uint64
	maxWindowLanes    int
}

// sampler is a periodic observation callback. Deadlines are multiples of the
// period; all deadlines at or before a window's start time fire at that
// window's start, so observations see exactly the state committed by the
// windows before it.
type sampler struct {
	period time.Duration
	next   time.Duration
	fn     func(at time.Duration)
}

// SchedStats is a snapshot of the windowed scheduler's telemetry: how the run
// decomposed into lookahead windows and how the lanes shared them. It is a
// function of the configuration and seed. Read it after Run returns (or from
// serialized context).
type SchedStats struct {
	// Windows is the number of lookahead windows the schedule decomposed
	// into; SerializedWindows of them contained global-lane work and ran in
	// global key order, with SerializedEvents events executed that way.
	Windows           uint64
	SerializedWindows uint64
	SerializedEvents  uint64
	// LaneDispatches is the total number of node-lane activations across
	// the other windows; LaneDispatches/(Windows-SerializedWindows) is the
	// mean number of independent lanes the lookahead exposed, MaxWindowLanes
	// its peak.
	LaneDispatches uint64
	MaxWindowLanes int
	// Events is the total number of events executed; Lookahead the configured
	// conservative window width.
	Events    uint64
	Lookahead time.Duration
	// InPlaceWakes is how many of Events were sleeps that ended as their
	// lane's next event inside a window of independent lanes and so cost no
	// event and no task switch (Task.Sleep): the reason two runs with equal
	// Events differ in host time. It is 0 on an engine without windows.
	InPlaceWakes uint64
	// Lanes holds per-node-lane totals, indexed by node.
	Lanes []LaneSchedStats
	// Census splits Events by kind; nil unless CountEventKinds was called.
	Census *Census `json:",omitempty"`
}

// Census is Events by kind. TaskStarts, SleepWakes, Unparks, ParkTimeouts, the
// Runners and SchedStats.InPlaceWakes add up to Events; SleptOn counts again
// among SleepWakes and InPlaceWakes, and Switches is not an event count.
type Census struct {
	// TaskStarts are first runs of a task; SleepWakes the queued wake-ups of
	// Sleep, SleepWhile and a sleep a wake-up took (ParkOnThenSleep,
	// StartSleeping); Unparks the wake-ups Unpark and Kill queue; ParkTimeouts
	// the ParkTimeout deadlines that were still queued when they fell due.
	TaskStarts   uint64
	SleepWakes   uint64
	Unparks      uint64
	ParkTimeouts uint64
	// SleptOn is how many wake-ups, queued or in place, a SleepWhile answered
	// by sleeping on: no task code ran and, for a queued one, no task switch
	// was made.
	SleptOn uint64
	// Switches are the task switches: every start or resume of a task's
	// coroutine, what a wake-up answered in event context saves.
	Switches uint64
	// Runners are the events that ran something other than a task, by what
	// they ran — a Runner's type, or the function handed to After — sorted by
	// name.
	Runners []RunnerCount
}

// RunnerCount is one row of Census.Runners.
type RunnerCount struct {
	Name   string
	Events uint64
}

// census is the live form of Census: its counters, and the runners by
// identity instead of by name.
type census struct {
	counts Census
	// runners is searched linearly: a simulation runs a dozen kinds of Runner.
	runners []runnerKind
}

// runnerKind identifies what an event ran: the Runner's dynamic type and, for
// After's plain functions, which function.
type runnerKind struct {
	typ    reflect.Type
	fn     uintptr
	events uint64
}

func (cs *census) countRunner(r Runner) {
	typ := reflect.TypeOf(r)
	var fn uintptr
	if f, ok := r.(funcEvent); ok {
		fn = reflect.ValueOf(f).Pointer()
	}
	for i := range cs.runners {
		if k := &cs.runners[i]; k.typ == typ && k.fn == fn {
			k.events++
			return
		}
	}
	cs.runners = append(cs.runners, runnerKind{typ: typ, fn: fn, events: 1})
}

// countTask classifies a task's event as step pops it. A task that has not
// run yet may be sleeping already: StartSleeping's first sleep.
func (cs *census) countTask(t *Task, deadline bool) {
	switch {
	case deadline:
		cs.counts.ParkTimeouts++
	case t.sleeping:
		cs.counts.SleepWakes++
	case t.co == nil:
		cs.counts.TaskStarts++
	default:
		cs.counts.Unparks++
	}
}

func (c *engineCore) countSleptOn() {
	if c.census != nil {
		c.census.counts.SleptOn++
	}
}

// snapshot builds the exported form.
func (cs *census) snapshot() *Census {
	out := cs.counts
	for _, k := range cs.runners {
		name := strings.TrimPrefix(k.typ.String(), "*")
		if k.fn != 0 {
			name = "func " + runtime.FuncForPC(k.fn).Name()
		}
		out.Runners = append(out.Runners, RunnerCount{Name: name, Events: k.events})
	}
	sort.Slice(out.Runners, func(i, j int) bool { return out.Runners[i].Name < out.Runners[j].Name })
	return &out
}

// CountEventKinds turns the event census on: from here SchedStats carries
// Events by kind. core.NewMachine calls it when a recorder is bound.
func (e *Engine) CountEventKinds() {
	if e.c.census == nil {
		e.c.census = &census{}
	}
}

// LaneSchedStats is one node lane's share of the schedule: events executed,
// windows in which the lane was dispatched (its busy-window count — virtual
// busy time is bounded by Windows×Lookahead), and its share of InPlaceWakes.
type LaneSchedStats struct {
	Events       uint64
	Windows      uint64
	InPlaceWakes uint64
}

// SchedStats returns the scheduler telemetry snapshot.
func (e *Engine) SchedStats() SchedStats {
	c := e.c
	s := SchedStats{
		Windows:           c.sched.windows,
		SerializedWindows: c.sched.serializedWindows,
		SerializedEvents:  c.sched.serializedEvents,
		LaneDispatches:    c.sched.laneDispatches,
		MaxWindowLanes:    c.sched.maxWindowLanes,
		Events:            c.nEvents,
		Lookahead:         c.lookahead,
	}
	for _, l := range c.lanes[1:] {
		s.Lanes = append(s.Lanes, LaneSchedStats{Events: l.events, Windows: l.windows, InPlaceWakes: l.inPlace})
		s.InPlaceWakes += l.inPlace
	}
	if c.census != nil {
		s.Census = c.census.snapshot()
	}
	return s
}

// WindowCounts returns SchedStats' Windows, SerializedWindows and
// LaneDispatches alone, for a gauge that reads them at every sample.
func (e *Engine) WindowCounts() (windows, serialized, laneDispatches uint64) {
	sc := &e.c.sched
	return sc.windows, sc.serializedWindows, sc.laneDispatches
}

// AddSampler registers fn to fire for every elapsed multiple of period, at
// the start of the scheduler window that first reaches each deadline. The
// callback runs between windows, so it may read any simulation state; at is
// the deadline being served (≤ the window start). Samplers stop naturally
// when the event queues drain.
func (e *Engine) AddSampler(period time.Duration, fn func(at time.Duration)) {
	if period <= 0 {
		return
	}
	e.c.samplers = append(e.c.samplers, sampler{period: period, next: period, fn: fn})
}

// ctrBits is the width of the creator counter in an event's seq, which packs
// the (creator lane, creator counter) pair into one word, lane above counter,
// so that comparing two seqs compares the pairs. A lane would have to create
// 2^48 events to overflow into the lane bits. The total order over events is
// (at, target lane, seq): nextLane compares the first two across lanes, a
// lane's heap the first and the last.
const ctrBits = 48

// Runner is what an event executes. A value that already exists when the
// event is scheduled — a message in flight, a bus, a task — rides in the event
// as it is, where a func() would be a closure allocated per event.
type Runner interface{ RunEvent() }

// funcEvent carries After's plain function. A func value is pointer-shaped,
// so it becomes a Runner without an allocation.
type funcEvent func()

func (f funcEvent) RunEvent() { f() }

// event is five words, and the heap moves whole events: a sixth word cost a
// quarter more per dispatch when it was tried.
type event struct {
	at  time.Duration
	seq uint64 // creator lane index << ctrBits | its counter at creation
	// run is called in event context, except that a *Task is started or
	// resumed by the lane (Spawn, Sleep, Unpark, Kill and, with tomb set, a
	// ParkTimeout deadline).
	run  Runner
	tomb *tombstone // non-nil for cancellable (timeout) events
}

// noEvent is the head time of a lane with nothing queued.
const noEvent = time.Duration(math.MaxInt64)

// tombstone marks a cancellable event: skipped on pop once cancelled, compacted
// away when those dominate the heap, and reused by its lane after either. lane
// is that lane, the one whose heap holds the event: a tombstone never leaves
// it.
type tombstone struct {
	dead bool
	lane int32
}

// eventHeap is a concrete 4-ary min-heap ordered by (at, seq). Compared
// to container/heap it avoids the interface boxing (one allocation per Push)
// and the indirect Less/Swap calls on the engine's hottest path; the wider
// fanout halves the tree depth, trading slightly more comparisons per
// sift-down for far fewer cache-missing levels. Because seq is unique,
// the order is total, so the pop sequence — and with it every simulation — is
// independent of the heap's internal shape.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

// before reports whether a orders strictly before b within one lane's heap.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure and task for GC
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// splitmix64 is the SplitMix64 finalizer, used to derive statistically
// independent per-lane RNG seeds from one root seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newLane(idx int, seed int64) *laneState {
	var rng *rand.Rand
	if idx == 0 {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng = rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(idx)*0x9e3779b97f4a7c15))))
	}
	return &laneState{idx: idx, rng: rng}
}

// NewEngine returns the global view of an engine whose random source is
// seeded with seed. The engine starts with no node lanes (the classic serial
// loop); ConfigureLanes adds them.
func NewEngine(seed int64) *Engine {
	c := &engineCore{}
	c.lanes = []*laneState{newLane(0, seed)}
	c.heads = []time.Duration{noEvent}
	c.seed = seed
	c.views = []*Engine{{c: c, lane: 0}}
	return c.views[0]
}

// ConfigureLanes declares the node-lane count. Once SetLookahead has provided
// a positive lookahead bound the engine runs window by window and lane by
// lane. It must be called before any node-lane events exist. Further arguments
// are accepted and ignored: the frozen benchmark's probes pass a host core
// count.
func (e *Engine) ConfigureLanes(nodes int, _ ...int) {
	c := e.c
	if len(c.lanes) > 1 {
		panic("sim: ConfigureLanes called twice")
	}
	if nodes >= 1<<(64-ctrBits)-1 {
		panic(fmt.Sprintf("sim: ConfigureLanes(%d): an event key holds the lane in %d bits", nodes, 64-ctrBits))
	}
	for i := 0; i < nodes; i++ {
		c.lanes = append(c.lanes, newLane(i+1, c.seed))
		c.heads = append(c.heads, noEvent)
		c.views = append(c.views, &Engine{c: c, lane: i + 1})
	}
}

// SetLookahead sets the conservative window width: the minimum virtual
// latency of any cross-lane effect. The fabric's minimum link latency is the
// natural bound. Zero disables windows: the run is one serial loop.
func (e *Engine) SetLookahead(d time.Duration) { e.c.lookahead = d }

// Lookahead returns the configured lookahead bound.
func (e *Engine) Lookahead() time.Duration { return e.c.lookahead }

// LaneView returns the engine view bound to node's lane. Events scheduled
// through the view (After, Spawn, task operations of tasks spawned on it)
// carry that lane's affinity. node GlobalLane (or any negative value)
// returns the global view, and so does every node of an engine without
// configured lanes, where every event is global (as for AfterRunOn). A lane
// has one view, built with the lane: the same pointer every time.
func (e *Engine) LaneView(node int) *Engine {
	views := e.c.views
	if node < 0 || len(views) == 1 {
		return views[0]
	}
	if node+1 >= len(views) {
		panic(fmt.Sprintf("sim: LaneView(%d) outside configured lanes (%d)", node, len(views)-1))
	}
	return views[node+1]
}

// Lane returns the node index this view is bound to, or GlobalLane.
func (e *Engine) Lane() int { return e.lane - 1 }

// Lanes returns the number of configured node lanes (0 in classic serial
// engines that never called ConfigureLanes).
func (e *Engine) Lanes() int { return len(e.c.lanes) - 1 }

// ls returns the lane state this view schedules onto.
func (e *Engine) ls() *laneState { return e.c.lanes[e.lane] }

// Now returns the current virtual time: the time of the executing event, read
// off the executing lane's clock whichever view is asked, and the committed
// clock between events.
func (e *Engine) Now() time.Duration {
	if cur := e.c.cur; cur != nil {
		return cur.now
	}
	return e.c.now
}

// ExecutingLane returns the node whose lane the executing event belongs to,
// or GlobalLane for a global-lane event and between events.
func (e *Engine) ExecutingLane() int {
	if cur := e.c.cur; cur != nil {
		return cur.idx - 1
	}
	return GlobalLane
}

// Rand returns this view's deterministic random source. Each lane owns an
// independent split stream, consumed only by that lane's events, so draws do
// not depend on how the lanes of a window interleave. The global view's
// source must not be used while node lanes execute a window independently;
// doing so panics.
func (e *Engine) Rand() *rand.Rand {
	if e.lane == 0 && e.c.parallel {
		panic("sim: Engine.Rand used from the global view during a parallel window; " +
			"use the node's LaneView rand (lane-split RNG) instead")
	}
	return e.c.lanes[e.lane].rng
}

// SetEventLimit caps the number of events Run will process; 0 means no cap.
func (e *Engine) SetEventLimit(n uint64) { e.c.limit = n }

// Events reports how many events have been executed so far.
func (e *Engine) Events() uint64 { return e.c.nEvents }

// After schedules fn to run at Now()+d on this view's lane, in event
// context. fn must not block; to perform blocking work, spawn a task from
// within fn. A fn that is a new closure each time costs an allocation per
// event; on a hot path schedule the object the closure would capture with
// AfterRun instead.
func (e *Engine) After(d time.Duration, fn func()) { e.AfterRun(d, funcEvent(fn)) }

// AfterRun schedules r to run at Now()+d on this view's lane, in event
// context, under After's rules. It allocates nothing.
func (e *Engine) AfterRun(d time.Duration, r Runner) { e.schedule(e.lane, d, r, nil) }

// AfterOn schedules fn at Now()+d on the lane of the given node
// (GlobalLane for the global lane). Scheduling onto a different lane from a
// lane executing its own window requires the target time to be at or past the
// window end — i.e. the effect must ride at least the lookahead; violations
// panic.
// AfterRunOn is to it what AfterRun is to After.
func (e *Engine) AfterOn(node int, d time.Duration, fn func()) {
	e.AfterRunOn(node, d, funcEvent(fn))
}

// AfterRunOn schedules r at Now()+d on the lane of the given node, under
// AfterOn's rules. It allocates nothing.
func (e *Engine) AfterRunOn(node int, d time.Duration, r Runner) {
	lane := 0
	// On an engine without configured lanes every event is global; callers
	// (e.g. the fabric) can then run unchanged against a classic serial
	// engine.
	if node >= 0 && node+1 < len(e.c.lanes) {
		lane = node + 1
	}
	e.schedule(lane, d, r, nil)
}

// schedule places an event created through this view onto the target lane, at
// Now()+d (a negative d counts as zero). The view names the creator in the
// event's key; the lane discipline is checked against the lane that is
// executing.
func (e *Engine) schedule(lane int, d time.Duration, run Runner, tomb *tombstone) {
	c := e.c
	src := e.ls()
	src.ctr++
	at := e.Now() + max(d, 0)
	c.checkLane(lane, at, "scheduled an event")
	c.push(lane, event{at: at, seq: uint64(e.lane)<<ctrBits | src.ctr, run: run, tomb: tomb})
}

// checkLane panics when the executing lane, inside a window of independent
// lanes, reaches onto another lane before the window's end: the effect must
// land at or after it, where no lane of this window looks.
func (c *engineCore) checkLane(lane int, at time.Duration, did string) {
	if c.parallel && lane != c.cur.idx && at < c.windowEnd {
		panic(fmt.Sprintf(
			"sim: lane violation: lane %d %s on lane %d at %v, inside the window ending %v (lookahead %v); cross-lane effects must ride the fabric latency or use the global lane",
			c.cur.idx-1, did, lane-1, at, c.windowEnd, c.lookahead))
	}
}

// push adds ev to a lane's heap and keeps the lane's head time a lower bound.
func (c *engineCore) push(lane int, ev event) {
	c.lanes[lane].heap.push(ev)
	if ev.at < c.heads[lane] {
		c.heads[lane] = ev.at
	}
}

// Run processes events until none remain, a task fails, or the event limit
// is hit. It returns the first task failure, a deadlock error if parked
// tasks remain with an empty queue, or nil on clean completion.
//
// An engine with node lanes and a lookahead runs under the windowed
// scheduler; any other is one serial loop. A panic in an event of a lane
// running its own window is a failure and Run's error; one in serial context
// (a serialized window, the serial loop) reaches Run's caller. The run stops
// at the first failure: no later event executes.
//
// No coroutine outlives Run: on the way out every pooled coroutine is ended
// and every task still suspended — parked forever, cut off by the event limit
// or by another task's failure — is unwound the way Kill unwinds it (its
// deferred calls run, no further task code does, and it is not a failure).
func (e *Engine) Run() error {
	c := e.c
	defer c.stopCoros()
	if c.lookahead > 0 && len(c.lanes) > 1 {
		return c.ended(c.runWindowed())
	}
	return c.ended(c.runSerial(noEvent))
}

// ended is what Run returns once its loop has returned err: err, else the
// failure that ended the run, else a deadlock if a task is parked forever.
func (c *engineCore) ended(err error) error {
	if err != nil {
		return err
	}
	if c.failure != nil {
		return c.failure
	}
	if parked := c.parkedTasks(); len(parked) > 0 {
		return fmt.Errorf("%w: %d task(s) parked forever at %v: %s",
			ErrDeadlock, len(parked), c.now, strings.Join(parked, ", "))
	}
	return nil
}

// nextLane returns the lane holding the globally smallest live event, its
// live head on top of its heap, or nil when nothing is queued. It scans the
// head times, not the heaps. A head time is only a lower bound — cancelling a
// timeout or compacting a heap raises a lane's true head behind its back — so
// the pick is verified against the lane's heap and, when the bound was stale,
// corrected and taken again: staleness costs a re-pick, never a wrong order.
// Equal times go to the lower lane index, as the event key orders them.
func (c *engineCore) nextLane() *laneState {
	for {
		best, bestAt := -1, noEvent
		for i, at := range c.heads {
			if at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			return nil
		}
		l := c.lanes[best]
		at := l.headAt()
		if at == bestAt {
			return l
		}
		c.heads[best] = at
	}
}

// headAt drops cancelled events from the heap top and returns the time of
// the lane's earliest live event, or noEvent.
func (l *laneState) headAt() time.Duration {
	for l.heap.Len() > 0 && l.heap[0].tomb != nil && l.heap[0].tomb.dead {
		l.spare = append(l.spare, l.heap.pop().tomb)
		l.tombs--
	}
	return l.top()
}

// top returns the time of the heap's first event, cancelled or not — a lower
// bound on headAt that costs no call — or noEvent.
func (l *laneState) top() time.Duration {
	if l.heap.Len() == 0 {
		return noEvent
	}
	return l.heap[0].at
}

// cancelTomb marks a cancellable event dead and compacts the lane's heap
// when dead events dominate it, so heavy timeout traffic (futex waits, RTO
// retransmit timers) cannot accumulate unbounded stale entries.
func (l *laneState) cancelTomb(t *tombstone) {
	if t.dead {
		return
	}
	t.dead = true
	l.tombs++
	if l.tombs*2 > len(l.heap) && l.tombs > 32 {
		// Rebuild in place: the heap being built never grows past the slot
		// being read. The vacated tail is cleared so that it does not keep the
		// cancelled events' tasks alive.
		old := l.heap
		l.heap = old[:0]
		for _, ev := range old {
			if ev.tomb == nil || !ev.tomb.dead {
				l.heap.push(ev)
			} else {
				l.spare = append(l.spare, ev.tomb)
			}
		}
		clear(old[len(l.heap):])
		l.tombs = 0
	}
}

// beginWindow opens the scheduler window starting at T: it fires every
// sampler deadline the window start has reached, publishes the window bound,
// decides whether the window must serialize (global-lane work pending before
// the bound), collects the active node lanes otherwise (in a scratch slice
// that the next call overwrites), and records the scheduler telemetry.
func (c *engineCore) beginWindow(T time.Duration) (serialize bool, active []*laneState) {
	for i := range c.samplers {
		s := &c.samplers[i]
		for s.next <= T {
			s.fn(s.next)
			s.next += s.period
		}
	}
	end := T + c.lookahead
	c.windowEnd = end
	c.sched.windows++

	// A window containing global-lane work runs in key order: global events
	// may touch any lane's state, so no lane may run ahead of them.
	if c.heads[0] < end && c.lanes[0].headAt() < end {
		c.sched.serializedWindows++
		c.serializedWin = true
		return true, nil
	}
	c.serializedWin = false
	active = c.active[:0]
	for _, l := range c.lanes[1:] {
		if c.heads[l.idx] < end && l.headAt() < end {
			active = append(active, l)
			l.windows++
		}
	}
	c.active = active
	c.sched.laneDispatches += uint64(len(active))
	if len(active) > c.sched.maxWindowLanes {
		c.sched.maxWindowLanes = len(active)
	}
	return false, active
}

// runSerial is the key-order loop: pop the globally smallest event, advance
// the clock, execute, for every event before end. With a window's end
// it is how the windowed scheduler executes a window that must keep global
// key order — one holding global-lane events, which run here with exclusive
// access to all simulation state. With end noEvent it is the whole run of an
// engine that has no windows (no lanes or no lookahead).
func (c *engineCore) runSerial(end time.Duration) error {
	for {
		if c.failure != nil {
			return c.failure
		}
		l := c.nextLane()
		if l == nil || l.heap[0].at >= end {
			return nil
		}
		if c.limit != 0 && c.nEvents >= c.limit {
			return fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit)
		}
		c.now = l.heap[0].at
		c.nEvents++
		if c.serializedWin {
			c.sched.serializedEvents++
		}
		c.cur = l
		l.step(c.census)
		c.cur = nil
		c.heads[l.idx] = l.top()
	}
}

// goschedEvery is how many events a lane executes between two calls of
// runtime.Gosched. A task switch is a direct coroutine switch, so an event
// loop never passes through the Go scheduler by itself; on one P the
// collector's background worker would then run only at the 10 ms preemption
// tick and the heap overshoot while it marks.
const goschedEvery = 1024

// advance moves the lane clock to an event that is about to run and counts it.
func (l *laneState) advance(at time.Duration) {
	l.now = at
	l.events++
	if l.events%goschedEvery == 0 {
		runtime.Gosched()
	}
}

// step pops the lane's next event and executes it on the calling goroutine:
// a task event starts or resumes its task, any other calls its function. cs is
// the engine's census, nil when off.
func (l *laneState) step(cs *census) {
	ev := l.heap.pop()
	l.advance(ev.at)
	t, ok := ev.run.(*Task)
	if !ok {
		if cs != nil {
			cs.countRunner(ev.run)
		}
		ev.run.RunEvent()
		return
	}
	if cs != nil {
		cs.countTask(t, ev.tomb != nil)
	}
	if ev.tomb != nil {
		l.spare = append(l.spare, ev.tomb)
		if !t.expire(ev.tomb) {
			return
		}
	}
	t.sleeping = false
	// A wake-up answered in event context: a task in SleepWhile is asked here,
	// where its code would have run, and a task that left a sleep for this
	// wake-up (ParkOnThenSleep, StartSleeping) takes it here; either is
	// switched into only once it stops sleeping. One that was killed, or
	// unwound when an earlier Run gave up, is not asked and sleeps no more.
	if !t.killed && !t.done {
		if t.again != nil && t.sleepOn() || t.wakeSleep && t.sleepLeft() {
			return
		}
	}
	t.eng.c.resume(t)
}

// runWindowed is the windowed scheduler. Each iteration picks the next window
// [T, T+lookahead); if the window contains global-lane events, it is
// processed in full key order, otherwise each active node lane in turn
// executes its own events up to the window end.
func (c *engineCore) runWindowed() error {
	for {
		if c.failure != nil {
			return c.failure
		}
		if c.limit != 0 && c.nEvents >= c.limit {
			return fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit)
		}
		// Find the window start: the globally smallest pending event.
		first := c.nextLane()
		if first == nil {
			return nil
		}
		serialize, active := c.beginWindow(first.heap[0].at)
		end := c.windowEnd
		if serialize {
			if err := c.runSerial(end); err != nil {
				return err
			}
			continue
		}
		c.parallel = true
		for _, l := range active {
			if c.failure == nil {
				c.runLane(l, end)
			}
			c.heads[l.idx] = l.top()
			c.now = max(c.now, l.now)
		}
		c.parallel = false
	}
}

// runLane executes one lane's events up to (but excluding) end, or until one
// fails or the event limit is used up.
func (c *engineCore) runLane(l *laneState, end time.Duration) {
	c.cur = l
	defer func() {
		if r := recover(); r != nil {
			c.fail(fmt.Errorf("sim: lane %d event panicked: %v\n%s", l.idx-1, r, debug.Stack()))
		}
		c.cur = nil
	}()
	for c.failure == nil && l.headAt() < end {
		if c.limit != 0 && c.nEvents >= c.limit {
			c.fail(fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit))
			return
		}
		c.nEvents++
		l.step(c.census)
	}
}

// fail records the failure that ends the run, the first in execution order.
func (c *engineCore) fail(err error) {
	if c.failure == nil {
		c.failure = err
	}
}

func (c *engineCore) parkedTasks() []string {
	var names []string
	for _, t := range c.tasks {
		if t.detail != "" {
			names = append(names, fmt.Sprintf("%s [%s] (parked at %q)", t.name, t.detail, t.reason().String()))
		} else {
			names = append(names, fmt.Sprintf("%s (parked at %q)", t.name, t.reason().String()))
		}
	}
	sort.Strings(names)
	return names
}

// Reason says what a task is parked on. It is only read by deadlock
// diagnostics, so the fault path hands over a constant prefix and a number
// (a page address, a thread id) and the text is built when a diagnostic asks
// for it.
type Reason struct {
	text string
	num  uint64
	base uint8 // 0: text alone; 10 or 16: text followed by num in that base; pairBase: by the pair num packs
}

const pairBase = 1 // num packs a pair a<<32|b

// ReasonNum is the reason prefix followed by n in decimal.
func ReasonNum(prefix string, n uint64) Reason { return Reason{text: prefix, num: n, base: 10} }

// ReasonHex is the reason prefix followed by n as 0x-prefixed hexadecimal,
// the way addresses print.
func ReasonHex(prefix string, n uint64) Reason { return Reason{text: prefix, num: n, base: 16} }

// ReasonPair is the reason prefix followed by "a->b", as a link prints.
func ReasonPair(prefix string, a, b uint32) Reason {
	return Reason{text: prefix, num: uint64(a)<<32 | uint64(b), base: pairBase}
}

func (r Reason) String() string {
	switch r.base {
	case 10:
		return r.text + strconv.FormatUint(r.num, 10)
	case 16:
		return r.text + "0x" + strconv.FormatUint(r.num, 16)
	case pairBase:
		return r.text + strconv.FormatUint(r.num>>32, 10) + "->" + strconv.FormatUint(r.num&math.MaxUint32, 10)
	}
	return r.text
}

// setReason and reason store and rebuild the Reason a task is parked on.
func (t *Task) setReason(r Reason) { t.parkText, t.parkNum, t.parkBase = r.text, r.num, r.base }

func (t *Task) reason() Reason { return Reason{text: t.parkText, num: t.parkNum, base: t.parkBase} }

// Task is a simulated thread of control. Its function runs on a coroutine
// (see coro) that Run's goroutine switches into, so at most one of the two
// runs at a time. Task methods must only be called by the task's own function,
// except Unpark (and Kill), which may be called from the task's own lane, or
// from any context while the lanes are serialized (a global-lane event, a
// serialized window, or an engine without windows).
type Task struct {
	eng  *Engine // view the task currently schedules through
	name string
	body Body
	// co is the coroutine running body: nil until the task's start event takes
	// one off the free list, and again once body has returned or been unwound.
	co *coro
	// idx is the task's place in the engine's registry of live tasks.
	idx       int32
	done      bool
	parked    bool
	killed    bool
	wakeToken bool
	timedOut  bool // the last ParkTimeout ended by its deadline
	sleeping  bool // a wake-up of Sleep, SleepWhile or wakeSleep is queued (the census asks)
	// parkText, parkNum and parkBase are the Reason the task is parked on, kept
	// field by field: beside the flags the base costs no word, and a Task stays
	// in the 128-byte size class (TestTaskSizeof).
	parkBase uint8
	// wakeSleep is set when the task's next wake-up (the Unpark ending a
	// ParkOnThenSleep, StartSleeping's start) is to sleep wakeSleepNs before
	// it switches into the task: step takes that sleep. Nanoseconds in 32 bits
	// keep the Task in its size class.
	wakeSleep   bool
	wakeSleepNs uint32
	parkText    string
	parkNum     uint64
	// again is SleepWhile's question, asked at each wake-up while it is set.
	again func() (time.Duration, bool)
	// detail is free-form location context (e.g. "node 3") set by the layer
	// that owns the task; it is included in deadlock diagnostics so a stuck
	// run names both the task and where it was executing.
	detail string
	// parkTomb is the pending ParkTimeout event's tombstone. It identifies
	// the park episode the deadline belongs to, and cancels the event when
	// the task is woken first, so the stale timer leaves the heap instead of
	// lingering until its deadline.
	parkTomb *tombstone
	// waitingSem is the semaphore this task is queued on, if any. It gives
	// Semaphore an O(1) membership test (a task can wait on at most one
	// semaphore: it is parked the whole time it is queued).
	waitingSem *Semaphore
}

// killPanic is the sentinel that unwinds a task's function when the task was
// killed or its coroutine stopped. It is recovered in coro.run and does not
// count as a simulation failure.
type killPanic struct{}

// coro is a coroutine that runs task functions, one task after another. The
// lane executing a task's event switches into it with resume and gets control
// back when the task calls suspend (through Task.yield) or its function ends;
// both are direct switches between two goroutines (iter.Pull over the
// runtime's coroswitch), not trips through the Go scheduler. Between tasks
// the coroutine sits on the engine's free list.
type coro struct {
	resume  func() (struct{}, bool) // run the coroutine until it suspends; false once it has ended
	stop    func()                  // end it: a suspended task unwinds, a pooled coroutine returns
	suspend func(struct{}) bool     // called on the coroutine: back to the resumer; false once stopped
	task    *Task                   // the task being run; nil while pooled
}

func newCoro() *coro {
	co := &coro{}
	co.resume, co.stop = iter.Pull(co.loop)
	return co
}

// loop is the coroutine's body: run the bound task, hand control back, and
// expect a new task to be bound at the next resume. It ends when the
// coroutine is stopped, or when a task panicked: that stack is not reused.
func (co *coro) loop(suspend func(struct{}) bool) {
	co.suspend = suspend
	for co.run() && suspend(struct{}{}) {
	}
}

// run executes the bound task's function and reports whether the coroutine
// may serve another task.
func (co *coro) run() (reusable bool) {
	t := co.task
	defer func() {
		if r := recover(); r != nil {
			if _, unwound := r.(killPanic); unwound {
				reusable = true
			} else {
				t.eng.c.fail(fmt.Errorf("sim: task %q panicked: %v\n%s", t.name, r, debug.Stack()))
			}
		}
		co.task = nil
		t.finish()
	}()
	t.body.RunTask(t)
	return true
}

// takeCoro returns a coroutine for a task that is starting.
func (c *engineCore) takeCoro() *coro {
	n := len(c.free)
	if n == 0 {
		return newCoro()
	}
	co := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	return co
}

// resume hands control to t and returns when it yields (sleeps, parks, or
// finishes). It runs in event context: a task that has never run gets a
// coroutine from the free list, and the coroutine of a task that finishes
// goes back onto it. A finished task's body is told last (Finisher).
func (c *engineCore) resume(t *Task) {
	if t.done {
		// Unwound when an earlier Run gave up; its wake-up is stale.
		return
	}
	co := t.co
	if co == nil {
		if t.killed {
			// Killed before ever running: discard without taking a coroutine.
			t.finish()
			finished(t)
			return
		}
		co = c.takeCoro()
		co.task, t.co = t, co
	}
	c.running = t
	if c.census != nil {
		c.census.counts.Switches++
	}
	_, alive := co.resume()
	c.running = nil
	if t.done {
		if alive {
			c.free = append(c.free, co)
		}
		finished(t)
	}
}

// finished tells t's body, if it is a Finisher, that the engine is done with t.
func finished(t *Task) {
	if f, ok := t.body.(Finisher); ok {
		f.Finished()
	}
}

// stopCoros ends every coroutine of the simulation: the pooled ones return,
// and tasks still suspended unwind. It runs when Run returns.
func (c *engineCore) stopCoros() {
	for i, co := range c.free {
		co.stop()
		c.free[i] = nil
	}
	c.free = c.free[:0]
	// Collected first: stopping a coroutine finishes its task, which takes it
	// out of the registry.
	var live []*coro
	for _, t := range c.tasks {
		if t.co != nil {
			live = append(live, t.co)
		}
	}
	for _, co := range live {
		co.stop()
	}
}

// Body is what a task runs: a value that exists anyway (a transaction record)
// runs as it is, where a func(*Task) would be a closure allocated per task.
type Body interface{ RunTask(*Task) }

// Finisher is a Body that is told when its task is over: the function has
// returned or unwound and the engine will not touch the Task again, so the
// record holding it may be reused, and the Task, reset to its zero value,
// started anew. A task still suspended when Run returns is not over.
type Finisher interface {
	Body
	Finished()
}

// funcBody carries Spawn's plain function, as funcEvent carries After's.
type funcBody func(*Task)

func (f funcBody) RunTask(t *Task) { f(t) }

// Spawn creates a task running fn on this view's lane, scheduled to start at
// the current virtual time (after already-queued events at this instant).
func (e *Engine) Spawn(name string, fn func(*Task)) *Task {
	return e.SpawnAfter(name, 0, fn)
}

// SpawnAfter creates a task running fn on this view's lane, scheduled to
// start after delay d.
func (e *Engine) SpawnAfter(name string, d time.Duration, fn func(*Task)) *Task {
	return e.start(new(Task), name, d, funcBody(fn))
}

// Start is Spawn of body in a Task the caller owns, typically embedded in the
// record body points to; it allocates nothing once coroutines are pooled. A
// Task starts once: starting it again panics, unless it has finished and been
// reset to its zero value (Finisher).
func (e *Engine) Start(t *Task, name string, body Body) { e.start(t, name, 0, body) }

// StartSleeping is Start of a body whose first act is Sleep(d), with the
// sleep taken out of the body: the task's start event takes it in event
// context, under the key and with the in-place wake the body's Sleep would
// have had, and the task is first switched into when it ends — one switch
// where the start and the wake-up make two. A task killed before the sleep
// ends never runs. d must not exceed 4.29s.
func (e *Engine) StartSleeping(t *Task, name string, body Body, d time.Duration) {
	if !t.leaveSleep(d) {
		panic(fmt.Sprintf("sim: task %q: a first sleep of %v does not fit; sleep in the body", name, d))
	}
	e.start(t, name, 0, body)
}

// SpawnSleeping is StartSleeping of fn in a new Task, as Spawn is Start.
func (e *Engine) SpawnSleeping(name string, d time.Duration, fn func(*Task)) *Task {
	t := new(Task)
	e.StartSleeping(t, name, funcBody(fn), d)
	return t
}

func (e *Engine) start(t *Task, name string, d time.Duration, body Body) *Task {
	if t.eng != nil {
		panic(fmt.Sprintf("sim: task %q started twice", t.name))
	}
	c := e.c
	t.eng, t.name, t.body, t.idx = e, name, body, int32(len(c.tasks))
	c.tasks = append(c.tasks, t)
	e.AfterRun(d, t)
	return t
}

// finish marks the task done and takes it out of the registry of live tasks.
func (t *Task) finish() {
	if t.done {
		return
	}
	t.done = true
	t.co = nil
	c := t.eng.c
	last := len(c.tasks) - 1
	moved := c.tasks[last]
	c.tasks[t.idx], moved.idx = moved, t.idx
	c.tasks[last] = nil
	c.tasks = c.tasks[:last]
}

// yield switches back to the goroutine that resumed the task and returns
// when the task is resumed again. A task killed meanwhile, or whose
// coroutine was stopped because Run is returning, unwinds from here.
func (t *Task) yield() {
	if !t.co.suspend(struct{}{}) || t.killed {
		panic(killPanic{})
	}
}

// RunEvent makes a *Task fit an event's Runner word, so a wake-up needs no
// closure. It is never called: step recognises a task and starts or resumes
// it on the executing lane.
func (t *Task) RunEvent() { panic("sim: a task's event is run by its lane") }

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// SetDetail attaches free-form location context (e.g. "node 3") that is
// reported alongside the task's name in deadlock diagnostics.
func (t *Task) SetDetail(detail string) { t.detail = detail }

// Engine returns the lane view the task currently schedules through.
func (t *Task) Engine() *Engine { return t.eng }

// Lane returns the node index of the task's lane, or GlobalLane.
func (t *Task) Lane() int { return t.eng.Lane() }

// SetLane rebinds the task to another node's lane (GlobalLane for the global
// lane). It models thread migration: every subsequent sleep, park timeout,
// and event the task schedules carries the new affinity. It may only be
// called while the lanes are serialized (from the task itself under a
// serialized window, or from a global-lane event).
func (t *Task) SetLane(node int) {
	c := t.eng.c
	if c.parallel {
		panic("sim: Task.SetLane during a parallel window; lane moves must happen in serialized context")
	}
	t.eng = t.eng.LaneView(node)
}

// Now returns the current virtual time as seen from the task's lane.
func (t *Task) Now() time.Duration { return t.eng.Now() }

// Sleep advances the task past d of virtual time. Other events run meanwhile:
// the task queues its wake-up and yields to its lane — unless the wake-up is
// the event the lane would run next anyway, in which case it is taken in place
// (wakeInPlace) and Sleep returns without an event or a task switch.
func (t *Task) Sleep(d time.Duration) {
	if t.wakeInPlace(d) {
		return
	}
	t.queueWake(d)
	t.yield()
}

// queueWake schedules the wake-up of a sleep that is not taken in place; the
// task yields until it (or, under SleepWhile, a later one) resumes the task.
func (t *Task) queueWake(d time.Duration) {
	t.sleeping = true
	t.eng.AfterRun(d, t)
}

// SleepWhile is the loop
//
//	for t.Sleep(d); ; t.Sleep(d) {
//		if d, ok = again(); !ok {
//			return
//		}
//	}
//
// without a switch into the task at the wake-ups that sleep on: again runs in
// event context on the task's lane, at the instant and in the place the task's
// code would have run, and says whether to sleep on and for how long. Each
// sleep is scheduled as Sleep schedules it — queued under the key schedule
// allocates, or taken in place when wakeInPlace allows — so the event keys, the
// event count and the in-place wakes are the loop's. again must do only what
// the loop's body could do without yielding. A task killed while it sleeps is
// resumed at its wake-up, to unwind, without being asked.
func (t *Task) SleepWhile(d time.Duration, again func() (time.Duration, bool)) {
	t.again = again
	if t.sleepFor(d) {
		t.yield()
	}
	t.again = nil
}

// sleepFor sleeps d and then on for as long as again says so, taking in place
// every wake-up that can be. It reports whether it queued a wake-up, at which
// step asks again; false means again ended the sleep at a wake-up taken in
// place.
func (t *Task) sleepFor(d time.Duration) (queued bool) {
	for t.wakeInPlace(d) {
		var ok bool
		if d, ok = t.again(); !ok {
			return false
		}
		t.eng.c.countSleptOn()
	}
	t.queueWake(d)
	return true
}

// sleepOn asks again at a queued wake-up that step has popped, and reports
// whether the task sleeps on (its next wake-up is queued).
func (t *Task) sleepOn() bool {
	d, ok := t.again()
	if !ok {
		return false
	}
	t.eng.c.countSleptOn()
	return t.sleepFor(d)
}

// leaveSleep makes the task's next wake-up sleep d before it switches into the
// task (wakeSleep). It reports false, leaving nothing, for a d that does not
// fit in wakeSleepNs: over 4.29s.
func (t *Task) leaveSleep(d time.Duration) bool {
	d = max(d, 0)
	if d > math.MaxUint32 {
		return false
	}
	t.wakeSleep, t.wakeSleepNs = true, uint32(d)
	return true
}

// sleepLeft takes, at a wake-up step has popped, the sleep leaveSleep left for
// it, as the task's own Sleep would take it at this instant on this lane, and
// reports whether its wake-up is queued: the task is switched into at that
// wake-up, not now.
func (t *Task) sleepLeft() bool {
	t.wakeSleep = false
	d := time.Duration(t.wakeSleepNs)
	if t.wakeInPlace(d) {
		return false
	}
	t.queueWake(d)
	return true
}

// wakeInPlace takes the wake-up of a Sleep(d) without queueing it, when
// nothing could run before it (DESIGN.md, "In-place wake-up"): the task is
// running on its own lane inside a parallel window (not on the lane SetLane
// moved it away from, where a park deadline may still resume it), so only that
// lane's heap can hold an earlier event; the wake time is before the window
// end; and the
// wake-up's key — the time, then (lane, counter) as schedule would have
// allocated them — orders before the lane's live heap head. The pushed event
// would then be popped next and resume this task; what is left of that is the
// bookkeeping of runLane and step. At the event limit the wake-up is queued,
// so that runLane sees the limit.
func (t *Task) wakeInPlace(d time.Duration) bool {
	e := t.eng
	c, l := e.c, e.c.lanes[e.lane]
	if !c.parallel || c.cur != l {
		return false
	}
	wake := event{at: l.now + max(d, 0), seq: uint64(e.lane)<<ctrBits | (l.ctr + 1)}
	if wake.at >= c.windowEnd || c.limit != 0 && c.nEvents >= c.limit {
		return false
	}
	if l.headAt() != noEvent && l.heap[0].before(wake) {
		return false
	}
	l.ctr++
	c.nEvents++
	l.inPlace++
	l.advance(wake.at)
	return true
}

// SleepUntil sleeps until the absolute virtual time at (a no-op if at is in
// the past).
func (t *Task) SleepUntil(at time.Duration) {
	t.Sleep(at - t.eng.Now())
}

// Park blocks the task until another simulation participant calls Unpark.
// If an Unpark token is already pending, Park consumes it and returns
// immediately. reason is reported in deadlock diagnostics.
func (t *Task) Park(reason string) { t.ParkOn(Reason{text: reason}) }

// ParkOn is Park with a reason that is only formatted if a diagnostic
// reports it.
func (t *Task) ParkOn(r Reason) {
	if t.wakeToken {
		t.wakeToken = false
		return
	}
	t.parked = true
	t.setReason(r)
	t.yield()
	t.setReason(Reason{})
}

// ParkOnThenSleep is
//
//	t.ParkOn(r)
//	t.Sleep(d)
//
// with one task switch where those make two: the wake-up that ends the park
// takes the sleep in event context (as SleepWhile answers its wake-ups), on
// the task's lane at the instant its own Sleep would, so the event keys, the
// event count and the in-place wakes are the two calls'; the task is switched
// into when the sleep ends. A pending Unpark token, or a d over 4.29s, makes
// it the two calls.
func (t *Task) ParkOnThenSleep(r Reason, d time.Duration) {
	if t.wakeToken || !t.leaveSleep(d) {
		t.ParkOn(r)
		t.Sleep(d)
		return
	}
	t.ParkOn(r)
}

// ParkTimeout parks the task like Park but additionally schedules a wake-up
// after d. It returns true if the task was unparked (or consumed a pending
// wake token) and false if the timeout fired first. An early unpark cancels
// the timer: the stale event is tombstoned out of the heap (and compacted
// away under heavy timeout churn) instead of lingering until its deadline.
// With d <= 0 there is no deadline and no timer: the call is Park, and
// returns true.
func (t *Task) ParkTimeout(reason string, d time.Duration) bool {
	return t.ParkOnTimeout(Reason{text: reason}, d)
}

// ParkOnTimeout is ParkTimeout with a lazily formatted reason.
func (t *Task) ParkOnTimeout(r Reason, d time.Duration) bool {
	if t.wakeToken {
		t.wakeToken = false
		return true
	}
	t.parked = true
	t.setReason(r)
	t.timedOut = false
	if d > 0 {
		eng := t.eng
		var tomb *tombstone
		if l := eng.ls(); len(l.spare) > 0 {
			tomb, l.spare = l.spare[len(l.spare)-1], l.spare[:len(l.spare)-1]
			tomb.dead = false
		} else {
			tomb = &tombstone{lane: int32(eng.lane)}
		}
		t.parkTomb = tomb
		eng.schedule(eng.lane, d, t, tomb)
	}
	t.yield()
	t.setReason(Reason{})
	return !t.timedOut
}

// expire is the deadline of the ParkTimeout that scheduled tomb. It reports
// whether the task is still in that park episode and must now be resumed.
func (t *Task) expire(tomb *tombstone) bool {
	if !t.parked || t.parkTomb != tomb {
		return false
	}
	t.timedOut = true
	t.parked = false
	t.parkTomb = nil
	return true
}

// Kill terminates the task the next time it would run: its function unwinds
// via panic without executing further task code, and the unwind is not
// recorded as a simulation failure. A parked task is scheduled immediately so
// the unwind happens promptly; a sleeping task unwinds when its sleep ends.
// Kill models sudden death (a crashed machine): any simulated resources the
// task holds (semaphore units, pool chunks) are abandoned, so it must only
// target tasks whose node is gone with them. Kill must not be called on the
// currently running task, and only from serialized context (crash recovery
// runs on the global lane).
func (t *Task) Kill() {
	if t.done || t.killed {
		return
	}
	eng := t.eng
	if eng.c.parallel {
		panic("sim: Task.Kill during a parallel window; crash recovery must run on the global lane")
	}
	if t == eng.c.running {
		panic("sim: Kill called on the running task")
	}
	t.killed = true
	if t.parked {
		t.parked = false
		t.dropParkTimer()
		eng.AfterRun(0, t)
	}
}

// Killed reports whether the task has been killed.
func (t *Task) Killed() bool { return t.killed }

// dropParkTimer cancels the pending ParkTimeout event, if any.
func (t *Task) dropParkTimer() {
	if t.parkTomb != nil {
		// Not the task's lane: SetLane may have moved it since it parked.
		t.eng.c.lanes[t.parkTomb.lane].cancelTomb(t.parkTomb)
		t.parkTomb = nil
	}
}

// Unpark makes a parked task runnable at the current virtual time. If the
// task is not parked, a wake token is recorded so its next Park returns
// immediately (binary-semaphore semantics; extra tokens are not accumulated).
// Unpark must be called from simulation context on the task's own lane, or
// from any context while the lanes are serialized (global-lane events,
// serialized windows, an engine without windows); from another lane inside a
// window of independent lanes it panics with the lane-violation context.
func (t *Task) Unpark() {
	if t.done {
		return
	}
	t.eng.c.checkLane(t.eng.lane, t.eng.Now(), "unparked a task")
	if !t.parked {
		t.wakeToken = true
		return
	}
	t.parked = false
	t.dropParkTimer()
	t.eng.AfterRun(0, t)
}

// Parked reports whether the task is currently parked.
func (t *Task) Parked() bool { return t.parked }

// Done reports whether the task function has returned.
func (t *Task) Done() bool { return t.done }
