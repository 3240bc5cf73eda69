package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// minLaneRef is the reference order nextLane must reproduce, and the picker
// this package had before it: drop the cancelled events from the top of every
// lane's heap and compare the heads by full event key, (at, target lane, seq).
func (c *engineCore) minLaneRef() *laneState {
	var best *laneState
	for _, l := range c.lanes {
		if l.headAt() == noEvent {
			continue
		}
		// Lanes are scanned in index order, so a tie in time stays with the
		// lower lane; seq only orders events of one lane.
		if best == nil || l.heap[0].at < best.heap[0].at {
			best = l
		}
	}
	return best
}

// runKeyOrder is Run with every window executed in global key order, as
// runSerial executes one that holds global-lane work: the reference order the
// tests hold windows of independent lanes to. It opens the windows Run opens,
// so the window schedule, SchedStats and sampler firings are Run's; no sleep
// is taken in place.
func runKeyOrder(e *Engine) error {
	c := e.c
	if c.lookahead == 0 || len(c.lanes) == 1 {
		return e.Run()
	}
	defer c.stopCoros()
	for c.failure == nil {
		if c.limit != 0 && c.nEvents >= c.limit {
			return c.ended(fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit))
		}
		first := c.nextLane()
		if first == nil {
			break
		}
		c.beginWindow(first.heap[0].at)
		if err := c.runSerial(c.windowEnd); err != nil {
			return c.ended(err)
		}
	}
	return c.ended(nil)
}

// runSerialRef is what runKeyOrder does — every window in global key order —
// over minLaneRef. At every pick it also asks
// nextLane, which must name the same lane, and at every window start it
// checks beginWindow's choice of lanes against a scan of every heap.
func (c *engineCore) runSerialRef(t *testing.T) {
	t.Helper()
	defer c.stopCoros()
	windows := len(c.lanes) > 1 && c.lookahead > 0
	for pick := 0; c.failure == nil; pick++ {
		got := c.nextLane()
		l := c.minLaneRef()
		if got != l {
			t.Fatalf("pick %d at %v: nextLane = %s, full scan = %s", pick, c.now, got.head(), l.head())
		}
		if l == nil {
			return
		}
		if at := l.heap[0].at; windows && at >= c.windowEnd {
			end := at + c.lookahead
			var want []*laneState
			if c.lanes[0].headAt() >= end {
				for _, nl := range c.lanes[1:] {
					if nl.headAt() < end {
						want = append(want, nl)
					}
				}
			}
			serialize, active := c.beginWindow(at)
			if serialize != (want == nil) || !slices.Equal(active, want) {
				t.Fatalf("window at %v: beginWindow = (%v, %d lanes), full scan wants %d lanes", at, serialize, len(active), len(want))
			}
		}
		c.now = l.heap[0].at
		c.nEvents++
		if c.serializedWin {
			c.sched.serializedEvents++
		}
		c.cur = l
		l.step(nil)
		c.cur = nil
		c.heads[l.idx] = l.top()
	}
	t.Fatalf("reference run: %v", c.failure)
}

func (l *laneState) head() string {
	if l == nil {
		return "none"
	}
	return fmt.Sprintf("lane %d @%v", l.idx-1, l.heap[0].at)
}

// pickTrace is what one run of the pick program leaves: a log per lane (each
// written only by events of that lane, so recording is race-free at any core
// count), the one log in execution order that a run in global key order can
// also keep, the scheduler's own counts, and every lane's creation counter at
// the end — equal counters say the events had equal keys, the sleeps taken in
// place included.
type pickTrace struct {
	perLane [][]string
	order   []string
	sched   SchedStats
	ctrs    []uint64
}

// pickMode is how a run of the pick program executes.
type pickMode int

const (
	pickRef      pickMode = iota // key order, under runSerialRef
	pickKeyOrder                 // key order, through runKeyOrder
	pickInline                   // independent lanes, through Run
)

// runPickProgram runs a seeded random program over nodes node lanes (0: a
// classic engine, everything on the global lane). Every lane has a worker
// that sleeps, schedules events on its own and on other lanes and wakes a
// waiter out of park timeouts, short ones and hour-long ones — early wake-ups
// cancel the deadline, which leaves the lane's head time stale, and enough of
// them compact its heap. A global-lane beat serializes windows and moves a
// rover task between lanes while its timeout is pending. Draws come from the
// lanes' own streams, so the program is the same in every mode.
func runPickProgram(t *testing.T, seed int64, nodes int, mode pickMode) pickTrace {
	t.Helper()
	const la = time.Microsecond
	root := NewEngine(seed)
	views := []*Engine{root}
	serial := mode == pickRef || mode == pickKeyOrder
	if nodes > 0 {
		root.ConfigureLanes(nodes)
		root.SetLookahead(la)
		views = views[:0]
		for i := 0; i < nodes; i++ {
			views = append(views, root.LaneView(i))
		}
	}
	root.SetEventLimit(1 << 22)
	tr := pickTrace{perLane: make([][]string, nodes+1)}
	// log records what on v's lane; only events of that lane may call it.
	log := func(v *Engine, what string) {
		line := fmt.Sprintf("%s now=%v", what, v.Now())
		tr.perLane[v.lane] = append(tr.perLane[v.lane], line)
		if serial {
			tr.order = append(tr.order, fmt.Sprintf("lane %d: %s", v.Lane(), line))
		}
	}
	ns := func(v *Engine, n int) time.Duration { return time.Duration(v.Rand().Intn(n)) * time.Nanosecond }

	for i, v := range views {
		stop := false
		waiter := v.Spawn(fmt.Sprintf("waiter-%d", i), func(task *Task) {
			for n := 0; !stop; n++ {
				d := time.Hour
				if v.Rand().Intn(2) == 0 {
					d = 100*time.Nanosecond + ns(v, 1400)
				}
				log(v, fmt.Sprintf("waiter park %d unparked=%v", n, task.ParkTimeout("pick", d)))
			}
		})
		v.Spawn(fmt.Sprintf("worker-%d", i), func(task *Task) {
			for k := 0; k < 240; k++ {
				switch op := v.Rand().Intn(7); {
				case op == 0:
					task.Sleep(0)
				case op == 1:
					task.Sleep(ns(v, 700))
				case op == 2:
					v.After(ns(v, 900), func() { log(v, fmt.Sprintf("after %d", k)) })
				case op == 3 && nodes > 1:
					dst := views[(i+1+v.Rand().Intn(nodes-1))%nodes]
					v.AfterOn(dst.Lane(), la+ns(v, 300), func() { log(dst, fmt.Sprintf("msg %d from %d", k, i)) })
				default:
					waiter.Unpark()
					task.Sleep(ns(v, 200))
				}
				log(v, fmt.Sprintf("step %d", k))
			}
			stop = true
			waiter.Unpark()
		})
	}
	if nodes > 0 {
		rover := views[0].Spawn("rover", func(task *Task) {
			for n := 0; n < 60; n++ {
				v := task.Engine()
				unparked := task.ParkTimeout("rove", 500*time.Nanosecond+ns(v, 4500))
				log(task.Engine(), fmt.Sprintf("rover %d unparked=%v", n, unparked))
			}
		})
		beats := 0
		var beat func()
		beat = func() {
			beats++
			if rover.Parked() {
				rover.SetLane(root.Rand().Intn(nodes))
				rover.Unpark()
			}
			log(root, fmt.Sprintf("beat %d", beats))
			if beats < 40 {
				root.After(2*time.Microsecond+ns(root, 3000), beat)
			}
		}
		root.After(2*time.Microsecond, beat)
	}

	run := root.Run
	if mode == pickKeyOrder {
		run = func() error { return runKeyOrder(root) }
	}
	if mode == pickRef {
		root.c.runSerialRef(t)
	} else if err := run(); err != nil {
		t.Fatalf("seed %d nodes %d mode %d: %v", seed, nodes, mode, err)
	}
	tr.sched = root.SchedStats()
	for _, l := range root.c.lanes {
		tr.ctrs = append(tr.ctrs, l.ctr)
	}
	return tr
}

// checkLanePick holds the production scheduler to the reference. Its key-order
// loop (runKeyOrder) executes the same events in the same order with the same
// window schedule as the full scan. Independent lanes, run one after the
// other, leave every lane the same log and the same scheduler counts — but
// for the sleeps they take in place, which key order never does.
func checkLanePick(t *testing.T, seed int64, nodes int) {
	t.Helper()
	ref := runPickProgram(t, seed, nodes, pickRef)
	if got := runPickProgram(t, seed, nodes, pickKeyOrder); !reflect.DeepEqual(ref, got) {
		t.Fatalf("seed %d nodes %d: key-order run diverged from the full-scan order%s", seed, nodes, firstDiff(ref.order, got.order))
	}
	if nodes == 0 {
		return
	}
	if ref.sched.InPlaceWakes != 0 {
		t.Fatalf("seed %d nodes %d: %d sleeps taken in place in key order", seed, nodes, ref.sched.InPlaceWakes)
	}
	inline := runPickProgram(t, seed, nodes, pickInline)
	if inline.sched.InPlaceWakes == 0 {
		t.Fatalf("seed %d nodes %d: no sleep taken in place", seed, nodes)
	}
	inline.order = ref.order // kept by runs in global order only
	inline.sched.InPlaceWakes = 0
	for i := range inline.sched.Lanes {
		inline.sched.Lanes[i].InPlaceWakes = 0
	}
	if !reflect.DeepEqual(ref, inline) {
		t.Fatalf("seed %d nodes %d: lane-by-lane run diverged from the full-scan order", seed, nodes)
	}
}

func firstDiff(want, got []string) string {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			return fmt.Sprintf(" at event %d:\nwant %s\ngot  %v", i, want[i], got[i:min(i+1, len(got))])
		}
	}
	return fmt.Sprintf(": %d events, want %d", len(got), len(want))
}

// pickLanes are the lane counts the picker is checked at, the global lane
// included: a classic engine, the benchmark's eight nodes, and more lanes
// than a cache line of head times.
var pickLanes = []int{1, 9, 33}

func TestLanePickMatchesFullScan(t *testing.T) {
	for _, lanes := range pickLanes {
		for seed := int64(1); seed <= 6; seed++ {
			checkLanePick(t, seed, lanes-1)
		}
	}
}

// FuzzLanePick runs the same property from the fuzzer's seeds; go test runs
// it over testdata/fuzz/FuzzLanePick.
func FuzzLanePick(f *testing.F) {
	f.Add(int64(7), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		checkLanePick(t, seed, pickLanes[int(shape)%len(pickLanes)]-1)
	})
}

// A cancelled deadline on top of a heap leaves the lane's head time too low;
// the pick must notice and go to the lane that really is next.
func TestLanePickSkipsStaleHead(t *testing.T) {
	root := NewEngine(1)
	root.ConfigureLanes(2)
	v0, v1 := root.LaneView(0), root.LaneView(1)
	var order []string
	sleeper := v0.Spawn("sleeper", func(task *Task) {
		task.ParkTimeout("stale", 10*time.Nanosecond) // lane 0's head: 10ns
		order = append(order, fmt.Sprintf("sleeper@%v", task.Now()))
	})
	v1.After(20*time.Nanosecond, func() { order = append(order, "lane1@20ns") })
	v0.After(30*time.Nanosecond, func() { order = append(order, "lane0@30ns") })
	root.After(5*time.Nanosecond, sleeper.Unpark) // cancels the 10ns deadline
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[sleeper@5ns lane1@20ns lane0@30ns]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

// The heap moves whole events, so an event's size is dispatch cost: five
// words, the Runner being two of them.
func TestEventSizeof(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

// A Task is allocated per Spawn — 150 k per iteration of the benchmark's serve
// workload — and 128 bytes is a size class: one more word puts it in the
// 144-byte one.
func TestTaskSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(Task{}) = %d, want 128", got)
	}
}

type countRunner struct{ n int }

func (r *countRunner) RunEvent() { r.n++ }

func TestAfterRunAllocsPerRun(t *testing.T) {
	r := &countRunner{}
	got := allocsInTask(t, func(tk *Task) {
		tk.Engine().AfterRun(0, r)
		tk.Engine().AfterRunOn(GlobalLane, 0, r)
		tk.Sleep(time.Nanosecond)
	})
	if got != 0 {
		t.Fatalf("AfterRun and AfterRunOn of a reused Runner: %v allocs, want 0", got)
	}
	if r.n < 400 {
		t.Fatalf("runner ran %d times, want twice per round", r.n)
	}
}

// A lane has one view, built with the lane: LaneView hands out the same
// pointer every time (the root view on an engine without lanes), so a task
// changing lanes allocates nothing.
func TestSetLaneAllocsPerRun(t *testing.T) {
	root := NewEngine(1)
	if root.LaneView(3) != root || root.LaneView(GlobalLane) != root {
		t.Fatal("an engine without lanes hands out a view other than its root")
	}
	root.ConfigureLanes(2)
	for n := GlobalLane; n < 2; n++ {
		if v := root.LaneView(n); v != root.LaneView(n) || v.Lane() != n || (n == GlobalLane) != (v == root) {
			t.Fatalf("LaneView(%d) = %p on lane %d (root %p)", n, v, v.Lane(), root)
		}
	}
	var got float64
	root.LaneView(0).Spawn("hopper", func(tk *Task) {
		got = testing.AllocsPerRun(200, func() {
			tk.SetLane(1)
			tk.SetLane(GlobalLane)
			tk.SetLane(0)
		})
		if tk.Engine() != root.LaneView(0) {
			t.Error("SetLane bound the task to a view of its own")
		}
	})
	if err := root.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("SetLane: %v allocs, want 0", got)
	}
	defer func() {
		if r := recover(); r != "sim: LaneView(2) outside configured lanes (2)" {
			t.Fatalf("LaneView past the configured lanes: %v", r)
		}
	}()
	root.LaneView(2)
}

// After's function rides in the event as it is: a function that exists
// already costs nothing to schedule.
func TestAfterOfBoundFuncAllocsPerRun(t *testing.T) {
	n := 0
	fn := func() { n++ }
	got := allocsInTask(t, func(tk *Task) {
		tk.Engine().After(0, fn)
		tk.Sleep(time.Nanosecond)
	})
	if got != 0 || n < 200 {
		t.Fatalf("After of a bound func: %v allocs (want 0), ran %d times", got, n)
	}
}
