package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allocsInTask reports the allocations of one call of f, measured from
// inside a running task so that f may sleep and park. The count is
// process-wide, so it includes what the event loop allocates meanwhile.
func allocsInTask(t *testing.T, f func(tk *Task)) float64 {
	t.Helper()
	e := NewEngine(1)
	var allocs float64
	e.Spawn("meter", func(tk *Task) {
		allocs = testing.AllocsPerRun(200, func() { f(tk) })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return allocs
}

func TestSleepRoundTripAllocatesNothing(t *testing.T) {
	got := allocsInTask(t, func(tk *Task) { tk.Sleep(time.Nanosecond) })
	if got != 0 {
		t.Fatalf("Sleep round trip: %v allocs, want 0", got)
	}
}

func TestUnparkResumeAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	stop := false
	wakes := 0
	sleeper := e.Spawn("sleeper", func(tk *Task) {
		for !stop {
			tk.Park("until poked")
			wakes++
		}
	})
	var got float64
	e.Spawn("meter", func(tk *Task) {
		got = testing.AllocsPerRun(200, func() {
			sleeper.Unpark()
			tk.Sleep(time.Nanosecond) // lets the sleeper run and park again
		})
		stop = true
		sleeper.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("Unpark and resume: %v allocs, want 0", got)
	}
	if wakes < 200 {
		t.Fatalf("sleeper woke %d times, want one per Unpark", wakes)
	}
}

// A new coroutine costs iter.Pull's thirteen allocations and a goroutine; a
// pooled one costs neither, which leaves the Task itself and the closure
// Spawn is handed (Start, below, needs neither).
func TestSteadyStateSpawnTakesPooledCoroutine(t *testing.T) {
	ran := 0
	got := allocsInTask(t, func(tk *Task) {
		tk.Engine().Spawn("short", func(*Task) { ran++ })
		tk.Sleep(time.Nanosecond) // the child starts, finishes and frees its coroutine
	})
	if got > 2 {
		t.Fatalf("spawn and finish of a short task: %v allocs, want at most 2 (no new coroutine)", got)
	}
	if ran < 200 {
		t.Fatalf("children ran %d times", ran)
	}
}

// countBody is a record that runs as its own embedded task.
type countBody struct {
	task Task
	ran  *int
}

func (b *countBody) RunTask(*Task) { *b.ran++ }

// A task embedded in a record the caller holds, with the record as its body,
// costs nothing to start once coroutines are pooled: no Task, no closure.
func TestStartAllocsPerRun(t *testing.T) {
	ran := 0
	bodies := make([]countBody, 1+200) // AllocsPerRun's warm-up and measured runs
	i := 0
	got := allocsInTask(t, func(tk *Task) {
		b := &bodies[i]
		i++
		b.ran = &ran
		tk.Engine().Start(&b.task, "embedded", b)
		tk.Sleep(time.Nanosecond) // the task starts, finishes and frees its coroutine
	})
	if got != 0 || ran != len(bodies) {
		t.Fatalf("Start of an embedded task: %v allocs (want 0), ran %d of %d", got, ran, len(bodies))
	}
}

// A Task runs once: a second Start, or a Start of a spawned task, is a bug
// in the caller and panics naming the task.
func TestStartTwicePanics(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	b := &countBody{ran: &ran}
	e.Start(&b.task, "once", b)
	for _, tk := range []*Task{&b.task, e.Spawn("spawned", func(*Task) {})} {
		func() {
			defer func() {
				if r := recover(); r != fmt.Sprintf("sim: task %q started twice", tk.Name()) {
					t.Errorf("second Start of %q: recovered %v", tk.Name(), r)
				}
			}()
			e.Start(tk, "again", b)
		}()
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("the embedded task ran %d times, want 1", ran)
	}
}

// finishBody is a record whose embedded task is reset when the engine says it
// is done with it, so that it can be started again.
type finishBody struct {
	task     Task
	finished int
	early    bool // Finished came while the engine still held the task
}

func (b *finishBody) RunTask(*Task) {}

func (b *finishBody) Finished() {
	b.early = b.early || !b.task.Done() || b.task.co != nil || b.task.eng.c.running == &b.task
	b.finished++
	b.task = Task{}
}

// A finished task's body hears so once the engine has let go of the task, and
// the task, reset, starts again and allocates nothing: one record serves a
// task after another.
func TestFinishedTaskRestartAllocsPerRun(t *testing.T) {
	b := &finishBody{}
	got := allocsInTask(t, func(tk *Task) {
		tk.Engine().Start(&b.task, "recycled", b)
		tk.Sleep(time.Nanosecond) // the task starts and finishes; Finished resets it
	})
	if got != 0 || b.finished != 201 || b.early {
		t.Fatalf("restart of a finished task: %v allocs (want 0), %d of 201 finishes, early %v", got, b.finished, b.early)
	}
}

// coroOf runs fn in a new task of e and reports which coroutine ran it.
func coroOf(e *Engine, name string, d time.Duration, fn func(*Task)) (task *Task, ran func() *coro) {
	var co *coro
	task = e.SpawnAfter(name, d, func(tk *Task) {
		co = tk.co
		fn(tk)
	})
	return task, func() *coro { return co }
}

func TestCoroutineReusedAfterFinishAndKill(t *testing.T) {
	e := NewEngine(1)
	var order []string
	_, first := coroOf(e, "finishes", 0, func(tk *Task) {
		tk.Sleep(time.Microsecond)
		order = append(order, "finishes")
	})
	parked, second := coroOf(e, "killed parked", 2*time.Microsecond, func(tk *Task) {
		defer func() { order = append(order, "parked unwound") }()
		tk.Park("forever")
		t.Error("killed task ran past its park")
	})
	e.After(3*time.Microsecond, parked.Kill)
	sleeping, third := coroOf(e, "killed sleeping", 4*time.Microsecond, func(tk *Task) {
		defer func() { order = append(order, "sleeper unwound") }()
		tk.Sleep(2 * time.Microsecond)
		t.Error("killed task ran past its sleep")
	})
	e.After(5*time.Microsecond, sleeping.Kill)
	// Started after the sleeper's wake-up at 6µs has unwound it.
	last, fourth := coroOf(e, "after the kills", 7*time.Microsecond, func(tk *Task) {
		tk.Sleep(time.Microsecond)
		tk.Park("token")
		order = append(order, "last")
	})
	e.After(8500*time.Nanosecond, func() {
		if n := len(e.c.free); n != 0 {
			t.Errorf("%d coroutines pooled while the only one is in use", n)
		}
	})
	e.After(9*time.Microsecond, last.Unpark)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first() == nil || second() != first() || third() != first() || fourth() != first() {
		t.Fatalf("coroutines %p %p %p %p, want one coroutine serving all four tasks",
			first(), second(), third(), fourth())
	}
	want := "finishes, parked unwound, sleeper unwound, last"
	if got := strings.Join(order, ", "); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if !parked.Done() || !sleeping.Done() {
		t.Fatalf("killed tasks done: %v %v", parked.Done(), sleeping.Done())
	}
}

func TestKillBeforeStartTakesNoCoroutine(t *testing.T) {
	e := NewEngine(1)
	before := runtime.NumGoroutine()
	victim := e.SpawnAfter("late", 2*time.Microsecond, func(*Task) { t.Error("killed task started") })
	e.After(time.Microsecond, victim.Kill)
	e.After(3*time.Microsecond, func() {
		if !victim.Done() {
			t.Error("victim not discarded by its start event")
		}
		if n := len(e.c.free); n != 0 {
			t.Errorf("%d coroutines pooled, want none ever created", n)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("goroutines %d → %d", before, got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// The tasks here are resumed by hand instead of by Run, so that the free
// list can be looked at before Run's exit empties it.
func TestPanickedCoroutineIsRetired(t *testing.T) {
	e := NewEngine(1)
	before := runtime.NumGoroutine()
	c := e.c
	c.resume(e.Spawn("ok", func(*Task) {}))
	if len(c.free) != 1 {
		t.Fatalf("%d coroutines pooled after a clean finish, want 1", len(c.free))
	}
	bomb := e.Spawn("bomb", func(*Task) { panic("boom") })
	c.resume(bomb)
	if !bomb.Done() {
		t.Fatal("panicked task not finished")
	}
	if err := c.failure; err == nil || !strings.Contains(err.Error(), `task "bomb" panicked: boom`) {
		t.Fatalf("failure = %v, want it to name the task", err)
	}
	if len(c.free) != 0 {
		t.Fatalf("%d coroutines pooled after a panic, want the panicked one retired", len(c.free))
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines %d → %d, want the panicked coroutine ended", before, got)
	}
	// The next task starts on a fresh coroutine and suspends like any other.
	next := e.Spawn("next", func(tk *Task) { tk.Sleep(time.Microsecond) })
	c.resume(next)
	if next.co == nil || next.Done() {
		t.Fatal("task after the panic did not start and suspend")
	}
	c.stopCoros()
	if !next.Done() {
		t.Fatal("stopCoros left a suspended task")
	}
}

// The deadline of a ParkTimeout that was woken early must not end a later
// park of the same task.
func TestParkTimeoutStaleDeadlineIgnored(t *testing.T) {
	e := NewEngine(1)
	var first, second bool
	var at time.Duration
	tk := e.Spawn("waiter", func(tk *Task) {
		first = tk.ParkTimeout("short", 5*time.Microsecond)
		second = tk.ParkTimeout("long", 20*time.Microsecond)
		at = tk.Now()
	})
	e.After(time.Microsecond, tk.Unpark)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !first || second || at != 21*time.Microsecond {
		t.Fatalf("first=%v second=%v at=%v, want woken, then timed out at 21µs", first, second, at)
	}
}

// One task moves round the node lanes through global-lane commits, the way a
// thread migrates, while every lane keeps a window's worth of work going.
func TestTaskHopsLanes(t *testing.T) {
	const lanes = 4
	const lookahead = time.Microsecond
	e := NewEngine(1)
	e.ConfigureLanes(lanes)
	e.SetLookahead(lookahead)
	for n := 0; n < lanes; n++ {
		e.LaneView(n).Spawn("busy", func(tk *Task) {
			for i := 0; i < 400; i++ {
				tk.Sleep(lookahead / 4)
			}
		})
	}
	var visited []int
	e.LaneView(0).Spawn("hopper", func(tk *Task) {
		for hop := 1; hop <= 40; hop++ {
			next := hop % lanes
			tk.Engine().AfterOn(GlobalLane, lookahead, func() {
				tk.SetLane(next)
				tk.Unpark()
			})
			tk.Park("hop")
			tk.Sleep(lookahead / 2)
			visited = append(visited, tk.Lane())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(visited) != 40 {
		t.Fatalf("%d hops, want 40", len(visited))
	}
	for i, lane := range visited {
		if want := (i + 1) % lanes; lane != want {
			t.Fatalf("hop %d ran on lane %d, want %d", i, lane, want)
		}
	}
	if got := e.SchedStats().MaxWindowLanes; got < 2 {
		t.Fatalf("MaxWindowLanes = %d: the hopper never shared a window", got)
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	type spawnFunc func(name string, fn func(*Task))
	forever := func(tk *Task) {
		for {
			tk.Sleep(time.Microsecond)
		}
	}
	cases := []struct {
		name  string
		build func(e *Engine, spawn spawnFunc)
		check func(err error) bool
	}{
		{"clean", func(e *Engine, spawn spawnFunc) {
			for i := 0; i < 11; i++ {
				spawn("worker", func(tk *Task) { tk.Sleep(time.Microsecond) })
			}
		}, func(err error) bool { return err == nil }},
		{"deadlocked", func(e *Engine, spawn spawnFunc) {
			for i := 0; i < 11; i++ {
				spawn("stuck", func(tk *Task) { tk.Park("never") })
			}
		}, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
		{"event-limited", func(e *Engine, spawn spawnFunc) {
			e.SetEventLimit(500)
			for i := 0; i < 10; i++ {
				spawn("sleeper", forever)
			}
			spawn("parked", func(tk *Task) { tk.Park("never") })
		}, func(err error) bool { return errors.Is(err, ErrEventLimit) }},
		{"panicking", func(e *Engine, spawn spawnFunc) {
			for i := 0; i < 10; i++ {
				spawn("sleeper", forever)
			}
			spawn("bomb", func(tk *Task) {
				tk.Sleep(5 * time.Microsecond)
				panic("boom")
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "boom") }},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		spawned, unwound := 0, 0
		for run := 0; run < 50; run++ {
			e := NewEngine(int64(run))
			e.ConfigureLanes(2)
			e.SetLookahead(time.Microsecond)
			tc.build(e, func(name string, fn func(*Task)) {
				spawned++
				e.LaneView(spawned%2).Spawn(name, func(tk *Task) {
					defer func() { unwound++ }()
					fn(tk)
				})
			})
			if err := e.Run(); !tc.check(err) {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
		}
		if spawned != 550 || unwound != 550 {
			t.Errorf("%s: %d tasks spawned, %d ended with their deferred call run, want 550",
				tc.name, spawned, unwound)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: goroutines %d → %d after 50 runs", tc.name, before, after)
		}
	}
}

func TestUnwindAtRunExitIsNotAFailure(t *testing.T) {
	e := NewEngine(1)
	resumed := false
	stuck := e.Spawn("stuck", func(tk *Task) {
		tk.Park("never")
		resumed = true
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), `stuck (parked at "never")`) {
		t.Fatalf("err = %v, want the deadlock naming the task", err)
	}
	if resumed || !stuck.Done() || stuck.Killed() {
		t.Fatalf("resumed=%v done=%v killed=%v, want unwound without running or being killed",
			resumed, stuck.Done(), stuck.Killed())
	}
	// A second Run finds nothing left: the unwind was not recorded as a
	// failure and the task is gone.
	if err := e.Run(); err != nil {
		t.Fatalf("second Run: %v", err)
	}
}

// A task cut off mid-sleep by the event limit leaves its wake-up in the
// queue; a later Run must drop it, not start the task over.
func TestStaleWakeupAfterEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetEventLimit(1)
	starts := 0
	sleeper := e.Spawn("sleeper", func(tk *Task) {
		starts++
		tk.Sleep(time.Microsecond)
		t.Error("task ran on after Run had unwound it")
	})
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if !sleeper.Done() {
		t.Fatal("sleeper not unwound")
	}
	e.SetEventLimit(0)
	if err := e.Run(); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if starts != 1 {
		t.Fatalf("task function started %d times, want 1", starts)
	}
}

func TestLazyParkReasons(t *testing.T) {
	for _, n := range []uint64{0, 9, 10, 0xff, 0x7f001000, 1 << 63} {
		if got, want := ReasonHex("page reply ", n).String(), fmt.Sprintf("page reply 0x%x", n); got != want {
			t.Errorf("ReasonHex = %q, want %q", got, want)
		}
		if got, want := ReasonNum("join t", n).String(), fmt.Sprintf("join t%d", n); got != want {
			t.Errorf("ReasonNum = %q, want %q", got, want)
		}
	}
	e := NewEngine(1)
	e.Spawn("a", func(tk *Task) { tk.ParkOn(ReasonHex("page reply ", 0x7f001000)) })
	e.Spawn("b", func(tk *Task) {
		if tk.ParkOnTimeout(ReasonNum("join t", 12), time.Microsecond) {
			t.Error("ParkOnTimeout woken without an Unpark")
		}
		tk.ParkOn(ReasonNum("join t", 12))
	})
	err := e.Run()
	want := `sim: deadlock: 2 task(s) parked forever at 1µs: a (parked at "page reply 0x7f001000"), b (parked at "join t12")`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}
