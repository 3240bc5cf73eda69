package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// wakeSleepProgram is a seeded program of followers, which park and then
// sleep, and of workers, which are started to sleep first, written once: how
// those two sleeps are written is the one thing that differs between the two
// runs TestWakeThenSleepIsTheCode compares.
type wakeSleepProgram struct {
	seed       int64
	serialized bool
	limit      uint64        // event limit, 0 for none
	killAt     time.Duration // kills lane 0's follower and newest worker from the global lane, 0 for never
}

// wakeSleepWorker is a worker's record, recycled through its lane's free list
// once the engine is done with its task.
type wakeSleepWorker struct {
	run   Task
	id    int
	first time.Duration // the sleep before the worker's code
	live  bool          // started, and not yet finished
	ran   bool
	free  *[]*wakeSleepWorker
	note  func(format string, args ...any)
	sleep bool // the body sleeps first itself (the code the new form stands for)
}

func (w *wakeSleepWorker) RunTask(t *Task) {
	if w.sleep {
		t.Sleep(w.first)
	}
	w.ran = true
	w.note("worker %d runs", w.id)
	t.Sleep(time.Duration(w.id%3) * 70 * time.Nanosecond)
	w.note("worker %d done", w.id)
}

func (w *wakeSleepWorker) Finished() {
	w.note("worker %d finished, ran %v, killed %v", w.id, w.ran, w.run.Killed())
	w.run, w.live = Task{}, false
	*w.free = append(*w.free, w)
}

// popped is one event as the scheduler took it off a heap: its key.
type popped struct {
	at   time.Duration
	lane int
	seq  uint64
}

// runPopping is Run — or, serialized, runKeyOrder — with every popped event's
// key recorded in execution order: runWindowed and runLane with a note before
// each step. TestWakeThenSleepIsTheCode checks that it schedules as Run does.
func runPopping(e *Engine, serialized bool) (keys []popped, err error) {
	c := e.c
	defer c.stopCoros()
	limited := func() bool { return c.limit != 0 && c.nEvents >= c.limit }
	step := func(l *laneState) {
		keys = append(keys, popped{l.heap[0].at, l.idx - 1, l.heap[0].seq})
		c.nEvents++
		l.step(c.census)
	}
	for c.failure == nil {
		if limited() {
			return keys, c.ended(fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit))
		}
		first := c.nextLane()
		if first == nil {
			break
		}
		serialize, active := c.beginWindow(first.heap[0].at)
		if serialize || serialized {
			for c.failure == nil {
				l := c.nextLane()
				if l == nil || l.heap[0].at >= c.windowEnd {
					break
				}
				if limited() {
					return keys, c.ended(fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit))
				}
				c.now, c.cur = l.heap[0].at, l
				if c.serializedWin {
					c.sched.serializedEvents++
				}
				step(l)
				c.cur, c.heads[l.idx] = nil, l.top()
			}
			continue
		}
		c.parallel = true
		for _, l := range active {
			c.cur = l
			for c.failure == nil && l.headAt() < c.windowEnd {
				if limited() {
					c.fail(fmt.Errorf("%w (limit %d)", ErrEventLimit, c.limit))
					break
				}
				step(l)
			}
			c.cur, c.heads[l.idx] = nil, l.top()
			c.now = max(c.now, l.now)
		}
		c.parallel = false
	}
	return keys, c.ended(nil)
}

// run executes the program with the sleeps written as the code (ParkOn then
// Sleep; Start of a body that sleeps first) or in the new forms
// (ParkOnThenSleep; StartSleeping), under runPopping or under Run, and returns
// everything that could tell them apart: the popped keys (runPopping only); a
// log line per return to a follower's or worker's code and per noise event,
// each with its time and the lane's creation counter (the key the next event
// of that lane would get); Run's error; and the scheduler's counts.
func (p wakeSleepProgram) run(newForms, popping bool) (keys []popped, log []string, errText string, st SchedStats) {
	const lanes = 3
	root := NewEngine(p.seed)
	root.ConfigureLanes(lanes)
	root.SetLookahead(time.Microsecond)
	root.CountEventKinds()
	if p.limit != 0 {
		root.SetEventLimit(p.limit)
	}
	note := func(v *Engine, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v lane%d ctr%d ", v.Now(), v.Lane(), v.ls().ctr)+fmt.Sprintf(format, args...))
	}
	plan := rand.New(rand.NewSource(p.seed))
	followers := make([]*Task, lanes)
	waking := make([]bool, lanes) // the follower is in its park or the sleep after it
	newest := make([]*wakeSleepWorker, lanes)
	frees := make([][]*wakeSleepWorker, lanes)
	workers := 0
	// start starts a worker on v from event context, as a message handler
	// dispatches a request.
	start := func(v *Engine, first time.Duration) *wakeSleepWorker {
		lane := v.Lane()
		var w *wakeSleepWorker
		if n := len(frees[lane]); n > 0 {
			w, frees[lane] = frees[lane][n-1], frees[lane][:n-1]
		} else {
			w = &wakeSleepWorker{free: &frees[lane], note: func(f string, a ...any) { note(v, f, a...) }}
		}
		workers++
		w.id, w.first, w.live, w.ran, w.sleep = workers, first, true, false, !newForms
		if newForms {
			v.StartSleeping(&w.run, "worker", w, first)
		} else {
			v.Start(&w.run, "worker", w)
		}
		newest[lane] = w
		return w
	}
	for i := 0; i < lanes; i++ {
		v := root.LaneView(i)
		wake := time.Duration(50+plan.Intn(500)) * time.Nanosecond
		dispatch := time.Duration(plan.Intn(700)) * time.Nanosecond
		followers[i] = v.Spawn(fmt.Sprintf("follower%d", i), func(tk *Task) {
			defer note(v, "follower gone")
			for round := 0; round < 30; round++ {
				waking[i] = true
				if newForms {
					tk.ParkOnThenSleep(ReasonNum("round ", uint64(round)), wake)
				} else {
					tk.ParkOn(ReasonNum("round ", uint64(round)))
					tk.Sleep(wake)
				}
				waking[i] = false
				note(v, "follower runs, round %d", round)
				tk.Sleep(time.Duration(round%3) * 90 * time.Nanosecond) // its own work, sometimes none
			}
		})
		// The leader on the follower's lane: it unparks the follower, sometimes
		// twice or before it has parked (a wake token), and starts workers, until
		// the follower is gone.
		v.Spawn(fmt.Sprintf("leader%d", i), func(tk *Task) {
			rng := v.Rand()
			for !followers[i].Done() {
				tk.Sleep(time.Duration(rng.Intn(1200)) * time.Nanosecond)
				switch rng.Intn(5) {
				case 0, 1:
					followers[i].Unpark()
				case 2:
					followers[i].Unpark()
					followers[i].Unpark()
				case 3:
					first := dispatch + time.Duration(rng.Intn(3))*time.Nanosecond
					v.After(time.Duration(rng.Intn(200))*time.Nanosecond, func() { start(v, first) })
				default:
					to := (i + 1 + rng.Intn(lanes-1)) % lanes
					tv := root.LaneView(to)
					v.AfterOn(to, time.Microsecond+time.Duration(rng.Intn(300))*time.Nanosecond, func() {
						note(tv, "noise from %d", i)
						start(tv, dispatch)
					})
				}
			}
		})
	}
	if p.killAt > 0 {
		root.After(p.killAt, func() {
			follower, worker := "at work", "none"
			switch f := followers[0]; {
			case f.Parked():
				follower = "parked"
			case waking[0] && !f.Done():
				follower = "asleep after its park"
			}
			w := newest[0]
			switch {
			case w == nil || !w.live:
			case w.run.sleeping && !w.ran:
				worker = "in its first sleep"
			case !w.ran:
				worker = "not started"
			default:
				worker = "at work"
			}
			note(root, "kill: follower %s, newest worker %s", follower, worker)
			followers[0].Kill()
			if w != nil && w.live {
				w.run.Kill()
			}
			// One killed before it starts: it never runs.
			start(root.LaneView(1), 300*time.Nanosecond).run.Kill()
		})
	}
	var err error
	switch {
	case popping:
		keys, err = runPopping(root, p.serialized)
	case p.serialized:
		err = runKeyOrder(root)
	default:
		err = root.Run()
	}
	if err != nil {
		errText = err.Error()
	}
	return keys, log, errText, root.SchedStats()
}

// A park followed by a sleep, and a start whose body sleeps first, are the
// code they stand for: the same events popped under the same keys at the same
// times, the same count of them, of those taken in place and of each kind,
// whether the lanes run their windows independently or in key order, through
// a Kill during the park, during the sleep and before the start, and up to an
// event limit — with fewer task switches.
func TestWakeThenSleepIsTheCode(t *testing.T) {
	kills := map[string]int{} // the states the kills found lane 0's tasks in
	for seed := int64(1); seed <= 12; seed++ {
		for _, p := range []wakeSleepProgram{
			{seed: seed},
			{seed: seed, serialized: true},
			{seed: seed, killAt: time.Duration(2000+300*seed) * time.Nanosecond},
			{seed: seed, serialized: true, killAt: time.Duration(2000+300*seed) * time.Nanosecond},
			{seed: seed, limit: 180},
			{seed: seed, limit: 181, serialized: true},
		} {
			wantKeys, wantLog, wantErr, want := p.run(false, true)
			gotKeys, gotLog, gotErr, got := p.run(true, true)
			if gotErr != wantErr {
				t.Errorf("%+v: Run says %q with the new forms, %q with the code", p, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				for i := 0; i < len(gotKeys) && i < len(wantKeys); i++ {
					if gotKeys[i] != wantKeys[i] {
						t.Errorf("%+v: event %d popped: %+v with the new forms, %+v with the code", p, i, gotKeys[i], wantKeys[i])
						break
					}
				}
				t.Errorf("%+v: %d events popped with the new forms, %d with the code", p, len(gotKeys), len(wantKeys))
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				for i := 0; i < len(gotLog) && i < len(wantLog); i++ {
					if gotLog[i] != wantLog[i] {
						t.Errorf("%+v: logs part at line %d:\nnew forms %s\ncode      %s", p, i, gotLog[i], wantLog[i])
						break
					}
				}
				t.Errorf("%+v: %d log lines with the new forms, %d with the code", p, len(gotLog), len(wantLog))
			}
			saved := want.Census.Switches - got.Census.Switches
			if got.Census.Switches >= want.Census.Switches {
				t.Errorf("%+v: %d task switches with the new forms, %d with the code: nothing saved", p, got.Census.Switches, want.Census.Switches)
			}
			got.Census.Switches, want.Census.Switches = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: scheduler counts differ:\nnew forms %+v %+v\ncode      %+v %+v", p, got, *got.Census, want, *want.Census)
			}
			// runPopping schedules as Run does.
			_, runLog, runErr, run := p.run(true, false)
			run.Census.Switches = 0
			if runErr != gotErr || !reflect.DeepEqual(runLog, gotLog) || !reflect.DeepEqual(run, got) {
				t.Errorf("%+v: Run differs from runPopping", p)
			}
			if p.limit == 0 && !p.serialized && got.InPlaceWakes == 0 {
				t.Errorf("%+v: no sleep taken in place; the program exercises nothing", p)
			}
			if (p.limit != 0) != (gotErr != "") {
				t.Errorf("%+v: Run says %q", p, gotErr)
			}
			if p.limit == 0 && saved < 20 {
				t.Errorf("%+v: %d task switches saved; the program exercises little", p, saved)
			}
			for _, line := range gotLog {
				if _, kill, ok := strings.Cut(line, "kill: "); ok {
					kills[kill]++
				}
			}
		}
	}
	for _, want := range []string{"follower parked", "follower asleep after its park", "worker in its first sleep"} {
		n := 0
		for kill, k := range kills {
			if strings.Contains(kill, want) {
				n += k
			}
		}
		if n == 0 {
			t.Errorf("no kill with the %s, in %v", want, kills)
		}
	}
}

// A wake-up that takes a sleep is counted as the code it stands for would be
// (an unpark, then a queued sleep wake; a start, then a queued sleep wake), and
// switches into its task once: a follower parked and woken pays one switch
// for its wake-up, a task started to sleep first one for its start.
func TestWakeSleepSwitchBudget(t *testing.T) {
	eng := NewEngine(1)
	eng.CountEventKinds()
	follower := eng.Spawn("follower", func(tk *Task) {
		tk.Sleep(10 * time.Nanosecond)
		tk.ParkOnThenSleep(Reason{text: "leader"}, 5*time.Nanosecond)
	})
	eng.Spawn("leader", func(tk *Task) {
		tk.Sleep(20 * time.Nanosecond)
		follower.Unpark()
	})
	ran := time.Duration(-1)
	eng.SpawnSleeping("worker", 7*time.Nanosecond, func(tk *Task) { ran = tk.Now() })
	st := mustRun(t, eng)
	if ran != 7*time.Nanosecond {
		t.Fatalf("worker ran at %v, want 7ns", ran)
	}
	// The follower's start, its wake-ups at 10ns and 25ns (not at the unpark,
	// 20ns); the leader's start and its wake-up; the worker at 7ns, not at 0.
	want := Census{TaskStarts: 3, SleepWakes: 4, Unparks: 1, Switches: 6}
	if st.Events != 8 || !reflect.DeepEqual(*st.Census, want) {
		t.Fatalf("%d events, census %+v; want 8, %+v", st.Events, *st.Census, want)
	}
}
