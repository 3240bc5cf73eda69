package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(3*time.Microsecond, func() { got = append(got, 3) })
	e.After(1*time.Microsecond, func() { got = append(got, 1) })
	e.After(2*time.Microsecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Microsecond {
		t.Fatalf("Now = %v, want 3µs", e.Now())
	}
}

func TestAfterSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Microsecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-time.Second, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestTaskSleep(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	e.Spawn("sleeper", func(tk *Task) {
		at = append(at, tk.Now())
		tk.Sleep(5 * time.Microsecond)
		at = append(at, tk.Now())
		tk.Sleep(0)
		at = append(at, tk.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at[0] != 0 || at[1] != 5*time.Microsecond || at[2] != 5*time.Microsecond {
		t.Fatalf("sleep times = %v", at)
	}
}

func TestTasksInterleave(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(tk *Task) {
		trace = append(trace, "a0")
		tk.Sleep(2 * time.Microsecond)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(tk *Task) {
		trace = append(trace, "b0")
		tk.Sleep(1 * time.Microsecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var woke time.Duration
	blocked := e.Spawn("blocked", func(tk *Task) {
		tk.Park("waiting for signal")
		woke = tk.Now()
	})
	e.Spawn("waker", func(tk *Task) {
		tk.Sleep(7 * time.Microsecond)
		blocked.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 7*time.Microsecond {
		t.Fatalf("woke at %v, want 7µs", woke)
	}
}

func TestUnparkBeforeParkToken(t *testing.T) {
	e := NewEngine(1)
	done := false
	var tsk *Task
	tsk = e.Spawn("t", func(tk *Task) {
		tk.Sleep(time.Microsecond) // token arrives while sleeping
		tk.Park("should not block")
		done = true
	})
	e.After(0, func() { tsk.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("park did not consume pending token")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(tk *Task) { tk.Park("never woken") })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetEventLimit(100)
	var spin func()
	spin = func() { e.After(time.Nanosecond, spin) }
	spin()
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bomb", func(tk *Task) { panic("boom") })
	e.Spawn("other", func(tk *Task) { tk.Sleep(time.Second) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking task")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(42)
		var out []time.Duration
		for i := 0; i < 5; i++ {
			e.Spawn("t", func(tk *Task) {
				for j := 0; j < 10; j++ {
					tk.Sleep(time.Duration(e.Rand().Intn(100)) * time.Microsecond)
					out = append(out, tk.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine(1)
	sem := newSemaphore("cores", 2)
	var order []string
	worker := func(name string, hold time.Duration) func(*Task) {
		return func(tk *Task) {
			sem.Acquire(tk)
			order = append(order, name+"+")
			tk.Sleep(hold)
			order = append(order, name+"-")
			sem.Release()
		}
	}
	e.Spawn("a", worker("a", 10*time.Microsecond))
	e.Spawn("b", worker("b", 10*time.Microsecond))
	e.Spawn("c", worker("c", 10*time.Microsecond))
	e.Spawn("d", worker("d", 10*time.Microsecond))
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a+", "b+", "a-", "b-", "c+", "d+", "c-", "d-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sem.avail != sem.total {
		t.Fatalf("%d of %d units free after all released", sem.avail, sem.total)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine(1)
	sem := newSemaphore("s", 1)
	e.Spawn("t", func(tk *Task) {
		if !sem.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if sem.TryAcquire() {
			t.Error("second TryAcquire succeeded")
		}
		sem.Release()
		if !sem.TryAcquire() {
			t.Error("TryAcquire after release failed")
		}
		sem.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSemaphoreStrayTokenDoesNotGrant(t *testing.T) {
	e := NewEngine(1)
	sem := newSemaphore("s", 1)
	var acquiredAt time.Duration
	holder := e.Spawn("holder", func(tk *Task) {
		sem.Acquire(tk)
		tk.Sleep(10 * time.Microsecond)
		sem.Release()
	})
	_ = holder
	waiter := e.Spawn("waiter", func(tk *Task) {
		sem.Acquire(tk)
		acquiredAt = tk.Now()
		sem.Release()
	})
	// Spurious unpark at t=5µs must not let the waiter through.
	e.After(5*time.Microsecond, func() { waiter.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acquiredAt != 10*time.Microsecond {
		t.Fatalf("waiter acquired at %v, want 10µs", acquiredAt)
	}
}

func TestBusSerializes(t *testing.T) {
	e := NewEngine(1)
	bus := newBus(e, "mem", 1e9) // 1 GB/s => 1µs per KB
	var doneA, doneB time.Duration
	e.Spawn("a", func(tk *Task) {
		bus.Transfer(tk, 1000)
		doneA = tk.Now()
	})
	e.Spawn("b", func(tk *Task) {
		bus.Transfer(tk, 1000)
		doneB = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if doneA != time.Microsecond {
		t.Fatalf("doneA = %v, want 1µs", doneA)
	}
	if doneB != 2*time.Microsecond {
		t.Fatalf("doneB = %v, want 2µs (serialized)", doneB)
	}
	if bus.Bytes() != 2000 {
		t.Fatalf("Bytes = %d, want 2000", bus.Bytes())
	}
}

func TestBusZeroBytes(t *testing.T) {
	e := NewEngine(1)
	bus := newBus(e, "mem", 1e9)
	e.Spawn("a", func(tk *Task) {
		bus.Transfer(tk, 0)
		if tk.Now() != 0 {
			t.Errorf("zero-byte transfer advanced time to %v", tk.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int]("m")
	var got []int
	e.Spawn("recv", func(tk *Task) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(tk))
		}
	})
	e.Spawn("send", func(tk *Task) {
		for i := 1; i <= 3; i++ {
			tk.Sleep(time.Microsecond)
			mb.Send(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestMailboxSendBeforeRecv(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[string]("m")
	mb.Send("early")
	var got string
	e.Spawn("recv", func(tk *Task) { got = mb.Recv(tk) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestMailboxMultipleReceivers(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int]("m")
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn("recv", func(tk *Task) { sum += mb.Recv(tk) })
	}
	e.Spawn("send", func(tk *Task) {
		tk.Sleep(time.Microsecond)
		mb.Send(1)
		mb.Send(2)
		mb.Send(4)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum != 7 {
		t.Fatalf("sum = %d, want 7", sum)
	}
}

func TestSpawnAfter(t *testing.T) {
	e := NewEngine(1)
	var started time.Duration
	e.SpawnAfter("late", 3*time.Microsecond, func(tk *Task) { started = tk.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if started != 3*time.Microsecond {
		t.Fatalf("started at %v", started)
	}
}

func TestBusCongestionInflatesConcurrentStreams(t *testing.T) {
	run := func(alpha float64) time.Duration {
		e := NewEngine(1)
		bus := newBus(e, "mem", 1e9)
		bus.SetCongestion(alpha)
		var last time.Duration
		for i := 0; i < 4; i++ {
			e.Spawn("s", func(tk *Task) {
				bus.Transfer(tk, 1000)
				if tk.Now() > last {
					last = tk.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return last
	}
	plain := run(0)
	congested := run(0.25)
	if plain != 4*time.Microsecond {
		t.Fatalf("plain = %v", plain)
	}
	if congested <= plain {
		t.Fatalf("congestion had no effect: %v vs %v", congested, plain)
	}
	// A single stream sees no congestion either way.
	single := func(alpha float64) time.Duration {
		e := NewEngine(1)
		bus := newBus(e, "m", 1e9)
		bus.SetCongestion(alpha)
		var d time.Duration
		e.Spawn("s", func(tk *Task) {
			bus.Transfer(tk, 1000)
			tk.Sleep(10 * time.Microsecond) // let the active window expire
			start := tk.Now()
			bus.Transfer(tk, 1000)
			d = tk.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	if single(0.25) != single(0) {
		t.Fatalf("lone stream penalized: %v vs %v", single(0.25), single(0))
	}
}

// Only a bus with a congestion factor counts its outstanding transfers, the
// one thing the end-of-transfer event is for: without one a transfer costs no
// event beyond its caller's, with one it costs the release.
func TestBusReleasesOnlyUnderCongestion(t *testing.T) {
	for _, tc := range []struct {
		alpha  float64
		events uint64
	}{{0, 0}, {0.25, 3}} {
		e := NewEngine(1)
		bus := newBus(e, "link", 1e9)
		bus.SetCongestion(tc.alpha)
		for i := 0; i < 3; i++ {
			bus.Occupy(1000)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if e.Events() != tc.events || bus.active != 0 {
			t.Errorf("congestion %v: %d events and %d transfers left active, want %d and 0", tc.alpha, e.Events(), bus.active, tc.events)
		}
	}
}

func TestEngineEventCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.After(time.Microsecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Events() != 5 {
		t.Fatalf("Events = %d", e.Events())
	}
}

func TestTaskAccessors(t *testing.T) {
	e := NewEngine(1)
	tk := e.Spawn("named", func(tk *Task) {
		if tk.Name() != "named" {
			t.Errorf("Name = %q", tk.Name())
		}
		if tk.Engine() != e {
			t.Error("Engine mismatch")
		}
		if tk.Now() != e.Now() {
			t.Error("Now mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !tk.Done() {
		t.Fatal("task not done")
	}
	tk.Unpark() // unparking a finished task must be a no-op
}

func TestUnparkFinishedTaskNoop(t *testing.T) {
	e := NewEngine(1)
	done := e.Spawn("d", func(tk *Task) {})
	e.SpawnAfter("later", time.Microsecond, func(tk *Task) {
		done.Unpark() // already finished
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestParkTimeoutFires(t *testing.T) {
	e := NewEngine(1)
	var woke bool
	var at time.Duration
	e.Spawn("waiter", func(tk *Task) {
		woke = tk.ParkTimeout("reply", 5*time.Microsecond)
		at = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke {
		t.Fatal("ParkTimeout returned true with no unpark")
	}
	if at != 5*time.Microsecond {
		t.Fatalf("timed out at %v, want 5µs", at)
	}
}

func TestParkTimeoutUnparkedEarly(t *testing.T) {
	e := NewEngine(1)
	var woke bool
	var at time.Duration
	waiter := e.Spawn("waiter", func(tk *Task) {
		woke = tk.ParkTimeout("reply", 50*time.Microsecond)
		at = tk.Now()
		// The stale timeout at t=50µs must not wake this later park.
		tk.Park("second wait")
	})
	e.After(3*time.Microsecond, func() { waiter.Unpark() })
	e.After(100*time.Microsecond, func() { waiter.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke || at != 3*time.Microsecond {
		t.Fatalf("woke=%v at %v, want true at 3µs", woke, at)
	}
	if e.Now() != 100*time.Microsecond {
		t.Fatalf("second park resolved at %v, want 100µs (stale timer must not wake it)", e.Now())
	}
}

func TestParkTimeoutConsumesToken(t *testing.T) {
	e := NewEngine(1)
	var tsk *Task
	var woke bool
	tsk = e.Spawn("t", func(tk *Task) {
		tk.Sleep(time.Microsecond) // token arrives while sleeping
		woke = tk.ParkTimeout("x", time.Second)
	})
	e.After(0, func() { tsk.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke || e.Now() != time.Microsecond {
		t.Fatalf("woke=%v now=%v, want token consumed immediately", woke, e.Now())
	}
}

// A timeout of zero (or less) is no deadline: the park sets no timer — the
// three events are the spawn, the unpark and the wake-up — ends only with an
// Unpark, and reports it.
func TestParkTimeoutWithoutDeadline(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Microsecond} {
		e := NewEngine(1)
		var woke bool
		waiter := e.Spawn("waiter", func(tk *Task) { woke = tk.ParkTimeout("ack", d) })
		e.After(time.Hour, func() { waiter.Unpark() })
		if err := e.Run(); err != nil {
			t.Fatalf("d=%v: Run: %v", d, err)
		}
		if !woke || e.Now() != time.Hour || e.Events() != 3 {
			t.Fatalf("d=%v: woke=%v at %v after %d events, want true at 1h after 3", d, woke, e.Now(), e.Events())
		}
	}
}

func TestKillParkedTask(t *testing.T) {
	e := NewEngine(1)
	reached := false
	victim := e.Spawn("victim", func(tk *Task) {
		tk.Park("forever")
		reached = true
	})
	e.After(2*time.Microsecond, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (kill must not fail the simulation)", err)
	}
	if reached {
		t.Fatal("killed task executed code after its park")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatalf("victim done=%v killed=%v", victim.Done(), victim.Killed())
	}
}

func TestKillSleepingTask(t *testing.T) {
	e := NewEngine(1)
	reached := false
	victim := e.Spawn("victim", func(tk *Task) {
		tk.Sleep(10 * time.Microsecond)
		reached = true
	})
	e.After(time.Microsecond, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Fatal("killed sleeper executed code after its sleep")
	}
}

func TestKillUnstartedTask(t *testing.T) {
	e := NewEngine(1)
	ran := false
	victim := e.SpawnAfter("late", 10*time.Microsecond, func(tk *Task) { ran = true })
	e.After(time.Microsecond, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran || !victim.Done() {
		t.Fatalf("ran=%v done=%v, want unstarted victim discarded", ran, victim.Done())
	}
}

func TestKillThenUnparkNoop(t *testing.T) {
	e := NewEngine(1)
	victim := e.Spawn("victim", func(tk *Task) { tk.Park("forever") })
	e.After(time.Microsecond, func() {
		victim.Kill()
		victim.Unpark() // must not double-dispatch the dying task
	})
	e.After(2*time.Microsecond, func() { victim.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDiagnosticsNameCulprit(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("pid0/t3", func(tk *Task) {
		tk.SetDetail("node 2")
		tk.Park("join t1")
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	for _, want := range []string{"pid0/t3", "[node 2]", `"join t1"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock message %q missing %q", err.Error(), want)
		}
	}
}
