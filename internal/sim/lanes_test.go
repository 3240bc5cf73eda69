package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// laneTrace is the observable outcome of one synthetic multi-lane run:
// per-lane event logs (lane-owned, so recording them is race-free), the
// global lane's log, and the committed event count. Byte-identical runs
// produce DeepEqual traces.
type laneTrace struct {
	perLane [][]string
	global  []string
	events  uint64
}

// runLaneWorkload drives a synthetic workload exercising every lane
// mechanism: lane-local sleeps with lane-RNG draws, cross-lane messages
// riding the lookahead, periodic global-lane events forcing serialized
// windows, and park/unpark traffic — with the lanes of a window run one after
// the other, or, serialized, every window in global key order.
func runLaneWorkload(t *testing.T, nodes int, serialized bool) laneTrace {
	t.Helper()
	const la = time.Microsecond
	root := NewEngine(42)
	root.ConfigureLanes(nodes)
	root.SetLookahead(la)

	tr := laneTrace{perLane: make([][]string, nodes)}
	views := make([]*Engine, nodes)
	for i := range views {
		views[i] = root.LaneView(i)
	}
	for i := 0; i < nodes; i++ {
		i := i
		v := views[i]
		v.Spawn(fmt.Sprintf("worker-%d", i), func(task *Task) {
			for k := 0; k < 40; k++ {
				task.Sleep(time.Duration(v.Rand().Intn(700)) * time.Nanosecond)
				tr.perLane[i] = append(tr.perLane[i],
					fmt.Sprintf("step k=%d now=%v draw=%d", k, task.Now(), v.Rand().Intn(1000)))
				// Cross-lane message to the next lane: must ride the lookahead.
				dst := (i + 1) % nodes
				jitter := time.Duration(v.Rand().Intn(300)) * time.Nanosecond
				v.AfterOn(dst, la+jitter, func() {
					tr.perLane[dst] = append(tr.perLane[dst],
						fmt.Sprintf("msg from=%d now=%v", i, views[dst].Now()))
				})
			}
		})
	}
	// Global-lane heartbeat: forces serialized windows to interleave with
	// parallel ones and reads cross-lane state (legal on the global lane).
	var beat func()
	beats := 0
	beat = func() {
		beats++
		total := 0
		for i := range tr.perLane {
			total += len(tr.perLane[i])
		}
		tr.global = append(tr.global, fmt.Sprintf("beat %d now=%v entries=%d", beats, root.Now(), total))
		if beats < 12 {
			root.After(3*time.Microsecond, beat)
		}
	}
	root.After(2*time.Microsecond, beat)

	run := root.Run
	if serialized {
		run = func() error { return runKeyOrder(root) }
	}
	if err := run(); err != nil {
		t.Fatalf("nodes=%d serialized=%v: %v", nodes, serialized, err)
	}
	tr.events = root.Events()
	return tr
}

// TestWindowedEquivalence is the property lanes rest on: running the lanes of
// a window one after the other reorders only events that commute, so every
// lane logs what it logs when each window runs in global key order.
func TestWindowedEquivalence(t *testing.T) {
	ref := runLaneWorkload(t, 4, true)
	if got := runLaneWorkload(t, 4, false); !reflect.DeepEqual(ref, got) {
		t.Fatalf("lane-by-lane trace diverged from key order:\nkey order: %+v\ngot:       %+v", ref, got)
	}
}

// TestWindowedEquivalenceSingleLane is the same with one node lane, where
// every window has at most one lane to run.
func TestWindowedEquivalenceSingleLane(t *testing.T) {
	ref := runLaneWorkload(t, 1, true)
	if got := runLaneWorkload(t, 1, false); !reflect.DeepEqual(ref, got) {
		t.Fatalf("single-lane trace diverged from key order:\nkey order: %+v\ngot:       %+v", ref, got)
	}
}

// TestGlobalRandGuard verifies the satellite guard: drawing from the global
// view's RNG while node lanes execute a window independently would make the
// draw depend on which lane ran first, and must panic (surfaced as a lane
// failure from Run).
func TestGlobalRandGuard(t *testing.T) {
	root := NewEngine(7)
	root.ConfigureLanes(2)
	root.SetLookahead(time.Microsecond)
	v0, v1 := root.LaneView(0), root.LaneView(1)
	// Both lanes need same-window work or the scheduler serializes the run.
	v1.After(100*time.Nanosecond, func() {})
	v0.After(100*time.Nanosecond, func() {
		root.Rand().Intn(10)
	})
	err := root.Run()
	if err == nil || !strings.Contains(err.Error(), "Engine.Rand used from the global view") {
		t.Fatalf("expected global-rand guard panic, got %v", err)
	}
}

// TestLaneRandSplitStreams verifies each lane draws an independent stream:
// two lanes with the same seed must not produce the same sequence, and the
// global stream must match a classic serial engine with the same seed.
func TestLaneRandSplitStreams(t *testing.T) {
	root := NewEngine(99)
	root.ConfigureLanes(2)
	a, b := root.LaneView(0), root.LaneView(1)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Rand().Intn(1<<30) == b.Rand().Intn(1<<30) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("lane RNG streams look identical (%d/32 equal draws)", same)
	}
	classic := NewEngine(99)
	if classic.Rand().Intn(1<<30) != NewEngine(99).Rand().Intn(1<<30) {
		t.Fatal("global stream not reproducible for equal seeds")
	}
}

// TestLaneViolationPanics verifies the conservative guard: a node lane
// scheduling onto another lane inside the current window is caught, not
// silently order-dependent.
func TestLaneViolationPanics(t *testing.T) {
	root := NewEngine(5)
	root.ConfigureLanes(2)
	root.SetLookahead(time.Microsecond)
	v0, v1 := root.LaneView(0), root.LaneView(1)
	v1.After(50*time.Nanosecond, func() {}) // keep lane 1 active in the window
	v0.After(50*time.Nanosecond, func() {
		v0.AfterOn(1, 100*time.Nanosecond, func() {}) // inside the window: illegal
	})
	err := root.Run()
	if err == nil || !strings.Contains(err.Error(), "lane violation") {
		t.Fatalf("expected lane violation, got %v", err)
	}
}

// TestCrossLaneUnparkPanics: waking a task of another lane from inside a
// window of independent lanes touches that lane's state and heap behind its
// back; it is caught with the same context, whether the task is parked or not.
func TestCrossLaneUnparkPanics(t *testing.T) {
	for _, parked := range []bool{true, false} {
		root := NewEngine(5)
		root.ConfigureLanes(2)
		root.SetLookahead(time.Microsecond)
		v0, v1 := root.LaneView(0), root.LaneView(1)
		sleeper := v1.Spawn("sleeper", func(tk *Task) {
			if parked {
				tk.Park("for lane 0")
			}
			tk.Sleep(500 * time.Nanosecond)
		})
		v0.After(50*time.Nanosecond, sleeper.Unpark)
		err := root.Run()
		want := "lane violation: lane 0 unparked a task on lane 1 at 50ns, inside the window ending 1µs"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("parked=%v: err = %v, want %q", parked, err, want)
		}
	}
}

// TestNowIsTheExecutingLanesClock: the clock belongs to the engine, not to
// the view it is read through.
func TestNowIsTheExecutingLanesClock(t *testing.T) {
	root := NewEngine(5)
	root.ConfigureLanes(2)
	root.SetLookahead(time.Microsecond)
	vA, vB := root.LaneView(0), root.LaneView(1)
	var got [3]time.Duration
	vA.After(700*time.Nanosecond, func() { got = [3]time.Duration{vA.Now(), vB.Now(), root.Now()} })
	vB.After(100*time.Nanosecond, func() {}) // makes the window one of two independent lanes; B's clock is never 700ns
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 700 * time.Nanosecond; got != [3]time.Duration{want, want, want} {
		t.Fatalf("Now() through lane A's, lane B's and the global view from lane A's event = %v, want %v each", got, want)
	}
	if root.Now() != 700*time.Nanosecond || root.ExecutingLane() != GlobalLane {
		t.Fatalf("after Run: Now() = %v on lane %d, want the committed clock and no lane", root.Now(), root.ExecutingLane())
	}
}

// TestParkTimeoutHeapBounded is the satellite regression test: a task that
// repeatedly arms ParkTimeout and is unparked early must not accumulate
// stale timer events — cancellation tombstones them and compaction keeps the
// lane heap bounded.
func TestParkTimeoutHeapBounded(t *testing.T) {
	eng := NewEngine(1)
	const rounds = 20000
	var waiter *Task
	waiter = eng.Spawn("waiter", func(task *Task) {
		for i := 0; i < rounds; i++ {
			if !task.ParkTimeout("wait", time.Hour) {
				t.Error("timeout fired despite immediate unpark")
				return
			}
		}
	})
	eng.Spawn("waker", func(task *Task) {
		for i := 0; i < rounds; i++ {
			task.Sleep(10 * time.Nanosecond)
			waiter.Unpark()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	heap := eng.ls().heap
	if n := len(heap); n > 128 {
		t.Fatalf("lane heap retained %d entries after %d cancelled timeouts; compaction is not working", n, rounds)
	}
	// What compaction and pop vacate must not keep the cancelled tasks alive.
	for i, ev := range heap[len(heap):cap(heap)] {
		if ev != (event{}) {
			t.Fatalf("slot %d past the heap's end still holds %+v", len(heap)+i, ev)
		}
	}
}

// TestParkTimeoutCancelAfterSetLane verifies the cancellation follows the
// task across a lane move: the timer was scheduled on the old lane's heap,
// so after SetLane the cancel must still hit that heap (and its tombstone
// accounting), not the new lane's.
func TestParkTimeoutCancelAfterSetLane(t *testing.T) {
	root := NewEngine(3)
	root.ConfigureLanes(2)
	root.SetLookahead(time.Microsecond)
	v0 := root.LaneView(0)
	timedOut := false
	task := v0.Spawn("mover", func(task *Task) {
		timedOut = !task.ParkTimeout("moving", time.Hour)
	})
	root.After(time.Microsecond, func() {
		task.SetLane(1)
		task.Unpark()
	})
	// Drain far past the timeout horizon: a stale timer would fire here.
	root.After(2*time.Hour, func() {})
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("cancelled timer fired after SetLane")
	}
	if tombs := root.c.lanes[1].tombs; tombs < 0 {
		t.Fatalf("lane 0 tombstone mis-accounted on lane 1: tombs=%d", tombs)
	}
	for i, l := range root.c.lanes {
		if l.tombs < 0 || l.tombs > l.heap.Len() {
			t.Fatalf("lane %d tombstone accounting broken: tombs=%d heap=%d", i-1, l.tombs, l.heap.Len())
		}
	}
}

// TestAfterOnUnconfiguredEngineStaysGlobal: layers written against the lane
// API (the fabric) must run unchanged on a classic serial engine — AfterOn
// clamps to the global lane when the node lane does not exist.
func TestAfterOnUnconfiguredEngineStaysGlobal(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	eng.AfterOn(3, time.Microsecond, func() { ran = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("AfterOn event did not run on unconfigured engine")
	}
}

// TestConfigureLanesTwicePanics documents the API contract.
func TestConfigureLanesTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second ConfigureLanes did not panic")
		}
	}()
	eng := NewEngine(1)
	eng.ConfigureLanes(2)
	eng.ConfigureLanes(2)
}

// TestSecondRunOfOneEngine: a laned engine can be run again once it has
// drained; the second Run opens its own windows.
func TestSecondRunOfOneEngine(t *testing.T) {
	root := NewEngine(1)
	root.ConfigureLanes(2)
	root.SetLookahead(time.Microsecond)
	for run := 0; run < 2; run++ {
		for i := 0; i < 2; i++ {
			root.LaneView(i).After(10*time.Nanosecond, func() {})
		}
		if err := root.Run(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if st := root.SchedStats(); st.Windows != 2 || st.Events != 4 || st.MaxWindowLanes != 2 {
		t.Fatalf("%d windows, %d events, at most %d lanes a window; want 2, 4, 2", st.Windows, st.Events, st.MaxWindowLanes)
	}
}
