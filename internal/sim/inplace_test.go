package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// lanedEngine is an engine with node lanes and a one-microsecond lookahead,
// so that Run goes through the windowed scheduler, and its node views.
func lanedEngine(nodes int) (*Engine, []*Engine) {
	root := NewEngine(1)
	root.ConfigureLanes(nodes)
	root.SetLookahead(time.Microsecond)
	views := make([]*Engine, nodes)
	for i := range views {
		views[i] = root.LaneView(i)
	}
	return root, views
}

// countResumes counts, from inside the running task, every later switch into
// its coroutine.
func countResumes(tk *Task, n *int) {
	resume := tk.co.resume
	tk.co.resume = func() (struct{}, bool) { *n++; return resume() }
}

func mustRun(t *testing.T, e *Engine) SchedStats {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.SchedStats()
}

// A task alone on its lane is always its lane's next event: every sleep that
// ends inside the window is taken in place, allocates nothing and switches to
// no other goroutine.
func TestInPlaceWakeAllocsPerRun(t *testing.T) {
	root, views := lanedEngine(2)
	var allocs float64
	resumes := 0
	views[0].Spawn("sleeper", func(tk *Task) {
		countResumes(tk, &resumes)
		// 201 sleeps of 1ns from time 0: all inside the window [0, 1µs).
		allocs = testing.AllocsPerRun(200, func() { tk.Sleep(time.Nanosecond) })
	})
	st := mustRun(t, root)
	if allocs != 0 || resumes != 0 {
		t.Fatalf("sleep taken in place: %v allocs, %d coroutine switches, want none", allocs, resumes)
	}
	if st.InPlaceWakes != 201 || st.Lanes[0].InPlaceWakes != 201 || st.Events != 202 {
		t.Fatalf("InPlaceWakes = %d (lane 0: %d) of %d events, want 201 of 202", st.InPlaceWakes, st.Lanes[0].InPlaceWakes, st.Events)
	}
}

// A sleep is taken in place only up to the window end: the wake-up exactly at
// the end belongs to the next window and goes through the heap.
func TestInPlaceWakeStopsAtWindowEnd(t *testing.T) {
	root, views := lanedEngine(2)
	resumes := 0
	views[0].Spawn("sleeper", func(tk *Task) {
		countResumes(tk, &resumes)
		for i := 0; i < 1000; i++ {
			tk.Sleep(10 * time.Nanosecond)
		}
	})
	st := mustRun(t, root)
	// Each window of 1µs holds 99 wake-ups before its end and one at it.
	if st.InPlaceWakes != 990 || resumes != 10 || st.Events != 1001 || st.Windows != 11 {
		t.Fatalf("%d in place, %d switches, %d events, %d windows; want 990, 10, 1001, 11",
			st.InPlaceWakes, resumes, st.Events, st.Windows)
	}
}

// A wake-up that ties in time with an arrival from another lane takes the key
// order: the arrival created by the lower lane runs first (so the sleep is not
// taken in place), the one created by the higher lane after.
func TestInPlaceWakeTieTakesKeyOrder(t *testing.T) {
	cases := []struct {
		senders []int
		order   string
		inPlace uint64
	}{
		{[]int{0}, "[from0 woke]", 0},
		{[]int{2}, "[woke from2]", 1},
		{[]int{0, 2}, "[from0 woke from2]", 0},
	}
	for _, tc := range cases {
		for _, mode := range []pickMode{pickKeyOrder, pickInline} {
			root, views := lanedEngine(3)
			var order []string
			for _, s := range tc.senders {
				views[s].AfterOn(1, 1500*time.Nanosecond, func() { order = append(order, fmt.Sprintf("from%d", s)) })
			}
			views[1].Spawn("sleeper", func(tk *Task) {
				tk.Sleep(time.Microsecond)      // to the start of the second window
				tk.Sleep(500 * time.Nanosecond) // ties with the arrivals at 1.5µs
				order = append(order, "woke")
			})
			var st SchedStats
			if mode == pickKeyOrder {
				if err := runKeyOrder(root); err != nil {
					t.Fatalf("runKeyOrder: %v", err)
				}
				st = root.SchedStats()
			} else {
				st = mustRun(t, root)
			}
			want := tc.inPlace
			if mode == pickKeyOrder {
				want = 0
			}
			if got := fmt.Sprint(order); got != tc.order || st.Lanes[1].InPlaceWakes != want {
				t.Errorf("senders %v, mode %d: order %s with %d in place, want %s with %d", tc.senders, mode, got, st.Lanes[1].InPlaceWakes, tc.order, want)
			}
		}
	}
}

// Global-lane work in a window serializes it: the lane's heap is then not all
// that can run before a wake-up, and no sleep is taken in place.
func TestInPlaceWakeNeedsIndependentLanes(t *testing.T) {
	sleeps := func(v *Engine) {
		v.Spawn("sleeper", func(tk *Task) {
			for i := 0; i < 5; i++ {
				tk.Sleep(10 * time.Nanosecond)
			}
		})
	}
	root, views := lanedEngine(2)
	sleeps(views[0])
	if st := mustRun(t, root); st.InPlaceWakes != 5 {
		t.Fatalf("independent lanes: %d in place, want 5", st.InPlaceWakes)
	}

	root, views = lanedEngine(2)
	root.After(500*time.Nanosecond, func() {})
	sleeps(views[0])
	if st := mustRun(t, root); st.InPlaceWakes != 0 || st.SerializedWindows != 1 {
		t.Fatalf("window with global work: %d in place in %d serialized windows, want 0 in 1", st.InPlaceWakes, st.SerializedWindows)
	}
}

// A park deadline left on the lane a task was moved away from resumes the
// task there, off its own lane. A sleep that ends inside the window is then
// neither taken in place nor queued behind the back of the task's lane, which
// may already have run past it: it is a lane violation. One that rides the
// lookahead brings the task home, where the next is taken in place.
func TestInPlaceWakeNotOffOwnLane(t *testing.T) {
	for _, tc := range []struct {
		first time.Duration
		want  string
	}{
		{10 * time.Nanosecond, "lane violation: lane 1 scheduled an event on lane 0 at 1.51µs"},
		{time.Microsecond, ""},
	} {
		root, views := lanedEngine(2)
		var ranOn []int
		var inPlace []uint64
		mover := views[1].Spawn("mover", func(tk *Task) {
			tk.ParkTimeout("moved while parked", 1500*time.Nanosecond)
			ranOn = append(ranOn, root.ExecutingLane())
			for _, d := range []time.Duration{tc.first, 10 * time.Nanosecond} {
				tk.Sleep(d)
				ranOn = append(ranOn, root.ExecutingLane())
				inPlace = append(inPlace, root.SchedStats().InPlaceWakes)
			}
		})
		root.After(200*time.Nanosecond, func() { mover.SetLane(0) })
		views[0].After(1400*time.Nanosecond, func() {}) // lane 0's clock, and the window [1.4µs, 2.4µs)
		err := root.Run()
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("first sleep %v: err = %v, want %q", tc.first, err, tc.want)
			}
			continue
		}
		if err != nil || fmt.Sprint(ranOn, inPlace) != "[1 0 0] [0 1]" {
			t.Fatalf("first sleep %v: err %v, on lanes %v with %v taken in place, want [1 0 0] and [0 1]", tc.first, err, ranOn, inPlace)
		}
	}
}

// A cancelled park deadline on top of the heap is not the lane's next event:
// it must not keep a sleep from being taken in place, and the live event
// behind it must still run before a later wake-up.
func TestInPlaceWakeSkipsCancelledDeadline(t *testing.T) {
	root, views := lanedEngine(2)
	v := views[0]
	var order []string
	var inPlace []uint64
	note := func(what string) {
		order = append(order, fmt.Sprintf("%s@%v", what, v.Now()))
		inPlace = append(inPlace, v.c.lanes[v.lane].inPlace)
	}
	waiter := v.Spawn("waiter", func(tk *Task) {
		tk.ParkTimeout("cancelled", 300*time.Nanosecond)
		note("waiter")
	})
	v.Spawn("worker", func(tk *Task) {
		waiter.Unpark() // the 300ns deadline stays on the heap, dead
		tk.Sleep(100 * time.Nanosecond)
		note("queued") // behind the waiter's wake-up at 0
		tk.Sleep(250 * time.Nanosecond)
		note("past-deadline") // only the dead deadline was in the way
		v.After(20*time.Nanosecond, func() { note("after") })
		tk.Sleep(30 * time.Nanosecond)
		note("behind-after")
	})
	mustRun(t, root)
	want := "[waiter@0s queued@100ns past-deadline@350ns after@370ns behind-after@380ns] [0 0 1 1 1]"
	if got := fmt.Sprint(order, inPlace); got != want {
		t.Fatalf("\n got %s\nwant %s", got, want)
	}
}

// Kill reaches a task at its next yield; sleeps taken in place are not
// yields, and the task unwinds from the first sleep that is.
func TestKillAfterInPlaceSleep(t *testing.T) {
	root, views := lanedEngine(2)
	var log []string
	victim := views[0].Spawn("victim", func(tk *Task) {
		defer func() { log = append(log, fmt.Sprintf("unwound@%v", tk.Now())) }()
		for i := 0; i < 3; i++ {
			tk.Sleep(10 * time.Nanosecond)
		}
		log = append(log, fmt.Sprintf("slept@%v", tk.Now()))
		tk.Sleep(5 * time.Microsecond)
		log = append(log, "survived")
	})
	root.After(2*time.Microsecond, victim.Kill)
	st := mustRun(t, root)
	if got := fmt.Sprint(log); got != "[slept@30ns unwound@5.03µs]" || !victim.Done() || st.InPlaceWakes != 3 {
		t.Fatalf("log %s, done %v, %d in place", got, victim.Done(), st.InPlaceWakes)
	}
}

// runWithin fails the test if Run has not returned after a generous
// wall-clock bound: the failure mode under test is a run that never ends.
func runWithin(t *testing.T, e *Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// The event limit must end a loop that never leaves its window: zero-delay
// sleeps (which would be taken in place for ever) and zero-delay events.
func TestEventLimitInsideOneWindow(t *testing.T) {
	loops := map[string]func(v *Engine){
		"sleep": func(v *Engine) {
			v.Spawn("spinner", func(tk *Task) {
				for {
					tk.Sleep(0)
				}
			})
		},
		"event": func(v *Engine) {
			var spin func()
			spin = func() { v.After(0, spin) }
			spin()
		},
	}
	for name, loop := range loops {
		root, views := lanedEngine(2)
		root.SetEventLimit(10000)
		loop(views[0])
		err := runWithin(t, root)
		if !errors.Is(err, ErrEventLimit) || err.Error() != "sim: event limit exceeded (limit 10000)" {
			t.Fatalf("%s loop: err = %v, want the event limit", name, err)
		}
		if got := root.Events(); got != 10000 {
			t.Fatalf("%s loop: %d events committed, want 10000", name, got)
		}
	}
}

// The text of everything that ends a run early. A panic in a lane's event is
// that lane's failure, and Run's error — the serial loop of an engine without
// windows still lets it propagate.
func TestFailureText(t *testing.T) {
	cases := []struct {
		name  string
		setup func(root *Engine, v *Engine)
		want  string
	}{
		{"handler panic", func(_, v *Engine) { v.After(10*time.Nanosecond, func() { panic("boom") }) },
			"sim: lane 0 event panicked: boom\n"},
		{"task failure", func(_, v *Engine) { v.Spawn("bomb", func(*Task) { panic("boom") }) },
			"sim: task \"bomb\" panicked: boom\n"},
		{"deadlock", func(_, v *Engine) {
			v.SpawnAfter("stuck", 10*time.Nanosecond, func(tk *Task) { tk.Park("never woken") })
		}, "sim: deadlock: 1 task(s) parked forever at 10ns: stuck (parked at \"never woken\")"},
		{"event limit", func(root, v *Engine) {
			root.SetEventLimit(50)
			v.Spawn("sleeper", func(tk *Task) {
				for {
					tk.Sleep(300 * time.Nanosecond)
				}
			})
		}, "sim: event limit exceeded (limit 50)"},
	}
	for _, tc := range cases {
		root, views := lanedEngine(2)
		tc.setup(root, views[0])
		views[1].After(10*time.Nanosecond, func() {}) // a second active lane
		err := runWithin(t, root)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, tc.want)
		}
	}
	root := NewEngine(1)
	root.After(0, func() { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("serial loop: recovered %v, want the handler's panic", r)
		}
	}()
	root.Run()
}
