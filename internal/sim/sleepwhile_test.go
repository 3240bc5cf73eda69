package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sleepWhileProgram is a seeded program of pollers and the noise around them,
// written once: how a poller sleeps is the one thing that differs between the
// two runs TestSleepWhileIsTheLoop compares.
type sleepWhileProgram struct {
	seed       int64
	serialized bool
	limit      uint64        // event limit, 0 for none
	killAt     time.Duration // kills lane 0's poller from the global lane, 0 for never
}

// run executes the program with the poller's sleep written as SleepWhile or as
// the loop it stands for, and returns everything that could tell them apart:
// a log line per wake-up asked, per return to the poller's own code and per
// noise event, each with its time and the lane's creation counter (the key the
// next event of that lane would get); Run's error; and the scheduler's counts.
func (p sleepWhileProgram) run(useSleepWhile bool) (log []string, errText string, st SchedStats) {
	const lanes = 3
	root := NewEngine(p.seed)
	root.ConfigureLanes(lanes)
	root.SetLookahead(time.Microsecond)
	if p.limit != 0 {
		root.SetEventLimit(p.limit)
	}
	note := func(v *Engine, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v lane%d ctr%d ", v.Now(), v.Lane(), v.ls().ctr)+fmt.Sprintf(format, args...))
	}
	plan := rand.New(rand.NewSource(p.seed))
	signal := make([]int, lanes) // bumped by noise; a poller stops sleeping when its lane's moves
	pollers := make([]*Task, lanes)
	for i := 0; i < lanes; i++ {
		v := root.LaneView(i)
		period := time.Duration(60+plan.Intn(400)) * time.Nanosecond
		patience := 3 + plan.Intn(9) // rounds before the poller looks for itself anyway
		pollers[i] = v.Spawn(fmt.Sprintf("poller%d", i), func(tk *Task) {
			defer note(v, "poller gone")
			for round := 0; round < 25; round++ {
				seen, asked := signal[i], 0
				again := func() (time.Duration, bool) {
					asked++
					note(v, "asked %d", asked)
					if signal[i] != seen || asked >= patience {
						return 0, false
					}
					// Not always the same period: the answer says how long.
					return period + time.Duration(asked%3)*25*time.Nanosecond, true
				}
				if useSleepWhile {
					tk.SleepWhile(period, again)
				} else {
					tk.Sleep(period)
					for d, ok := again(); ok; d, ok = again() {
						tk.Sleep(d)
					}
				}
				note(v, "poller runs, round %d", round)
				tk.Sleep(time.Duration(round%4) * 40 * time.Nanosecond) // its own work, sometimes none
			}
		})
		// Noise on the poller's lane: sleeps that interleave with the poller's
		// wake-ups, signals to its own lane at once and to the others across
		// the lookahead.
		v.Spawn(fmt.Sprintf("noise%d", i), func(tk *Task) {
			rng := v.Rand()
			for k := 0; k < 40; k++ {
				tk.Sleep(time.Duration(rng.Intn(900)) * time.Nanosecond)
				switch rng.Intn(4) {
				case 0:
					signal[i]++
					note(v, "signal own")
				case 1:
					to := (i + 1 + rng.Intn(lanes-1)) % lanes
					tv := root.LaneView(to)
					v.AfterOn(to, time.Microsecond+time.Duration(rng.Intn(300))*time.Nanosecond, func() {
						signal[to]++
						note(tv, "signal from %d", i)
					})
				}
			}
		})
	}
	if p.killAt > 0 {
		root.After(p.killAt, func() {
			note(root, "kill")
			pollers[0].Kill()
		})
	}
	run := root.Run
	if p.serialized {
		run = func() error { return runKeyOrder(root) }
	}
	if err := run(); err != nil {
		errText = err.Error()
	}
	return log, errText, root.SchedStats()
}

// SleepWhile is the loop its comment writes out: the same events under the
// same keys at the same times, the same count of them and of those taken in
// place, whether the lanes run their windows independently or in key order,
// through a Kill that lands while the poller sleeps, and up to an event limit.
func TestSleepWhileIsTheLoop(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, p := range []sleepWhileProgram{
			{seed: seed},
			{seed: seed, serialized: true},
			{seed: seed, killAt: 3300 * time.Nanosecond},
			{seed: seed, serialized: true, killAt: 3300 * time.Nanosecond},
			{seed: seed, limit: 150},
			{seed: seed, limit: 151, serialized: true},
		} {
			wantLog, wantErr, wantStats := p.run(false)
			gotLog, gotErr, gotStats := p.run(true)
			if gotErr != wantErr {
				t.Errorf("%+v: Run says %q with SleepWhile, %q with the loop", p, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%+v: scheduler counts differ:\nSleepWhile %+v\nloop       %+v", p, gotStats, wantStats)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				for i := 0; i < len(gotLog) && i < len(wantLog); i++ {
					if gotLog[i] != wantLog[i] {
						t.Errorf("%+v: logs part at line %d:\nSleepWhile %s\nloop       %s", p, i, gotLog[i], wantLog[i])
						break
					}
				}
				t.Errorf("%+v: %d log lines with SleepWhile, %d with the loop", p, len(gotLog), len(wantLog))
			}
			if p.limit == 0 && !p.serialized && gotStats.InPlaceWakes == 0 {
				t.Errorf("%+v: no sleep taken in place; the program exercises nothing", p)
			}
			if (p.limit != 0) != (gotErr != "") {
				t.Errorf("%+v: Run says %q", p, gotErr)
			}
		}
	}
}

// What SleepWhile saves is the switches: a poller alone on its lane, asked a
// thousand times across windows, is switched into once, when it stops.
func TestSleepWhileSwitchesOnlyToStop(t *testing.T) {
	root, views := lanedEngine(2)
	root.CountEventKinds()
	resumes, asked := 0, 0
	views[0].Spawn("poller", func(tk *Task) {
		countResumes(tk, &resumes)
		tk.SleepWhile(10*time.Nanosecond, func() (time.Duration, bool) {
			asked++
			return 10 * time.Nanosecond, asked < 1000
		})
	})
	st := mustRun(t, root)
	// As in TestInPlaceWakeStopsAtWindowEnd: 99 wake-ups of each window are
	// taken in place and one, at its end, is queued.
	if asked != 1000 || resumes != 1 || st.Events != 1001 || st.InPlaceWakes != 990 {
		t.Fatalf("asked %d times with %d switches, %d events, %d in place; want 1000, 1, 1001, 990",
			asked, resumes, st.Events, st.InPlaceWakes)
	}
	cs := st.Census
	if cs.SleptOn != 999 || cs.SleepWakes != 10 || cs.TaskStarts != 1 {
		t.Fatalf("census %+v; want 999 slept on, 10 queued wakes, 1 start", cs)
	}
}
