package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dex/internal/dsm"
	"dex/internal/mem"
	"dex/internal/obs"
)

const (
	pollPeriod = 2 * time.Microsecond
	pollBytes  = 48
	pollStop   = math.MaxUint64
)

// pollProgram runs a poller on node 1 beside a writer on its own node, one on
// node 2 and a reader on node 2 (whose reads take write access away from node
// 1), all at seeded times. The poller reads three slots on two pages every
// period, logs each value it had not seen with the time it saw it, does some
// work of its own every 37µs, and stops at the stop mark. With pollIdle its
// sleep between rounds is PollIdle; without, the Sleep that PollIdle stands
// for. It returns the poller's log and the process report, less the census.
func pollProgram(t *testing.T, proto dsm.Protocol, seed int64, pollIdle bool) (log []string, rep Report, sleptOn uint64) {
	t.Helper()
	params := DefaultParams(3)
	params.DSM.Protocol = proto
	params.Seed = seed
	params.Obs = obs.NewFaultRecorder() // for the census
	_, rep = runParams(t, params, func(th *Thread) error {
		base, err := th.Mmap(3*mem.PageSize, mem.ProtRead|mem.ProtWrite, "rings")
		if err != nil {
			return err
		}
		slots := []mem.Addr{base, base + 128, base + mem.PageSize + 64}
		scratch := base + 2*mem.PageSize

		writer := func(node int, seed int64, writes int) func(*Thread) error {
			return func(w *Thread) error {
				if err := w.Migrate(node); err != nil {
					return err
				}
				rng := rand.New(rand.NewSource(seed))
				for i := 1; i <= writes; i++ {
					w.Sleep(time.Duration(1+rng.Intn(40_000)) * time.Nanosecond)
					if err := w.WriteUint64(slots[rng.Intn(len(slots))], uint64(node)<<32|uint64(i)); err != nil {
						return err
					}
				}
				return nil
			}
		}
		reader := func(r *Thread) error {
			if err := r.Migrate(2); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < 12; i++ {
				r.Sleep(time.Duration(1+rng.Intn(60_000)) * time.Nanosecond)
				if _, err := r.ReadUint64(slots[rng.Intn(len(slots))] + 8); err != nil {
					return err
				}
			}
			return nil
		}
		poller := func(p *Thread) error {
			if err := p.Migrate(1); err != nil {
				return err
			}
			last := make([]uint64, len(slots))
			nextWork := p.Now() + 37*time.Microsecond
			for {
				for i, a := range slots {
					var buf [pollBytes]byte
					if err := p.Read(a, buf[:]); err != nil {
						return err
					}
					v := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
						uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
					if v != last[i] {
						last[i] = v
						log = append(log, fmt.Sprintf("%v slot%d=%#x", p.Now(), i, v))
					}
				}
				if last[0] == pollStop {
					return nil
				}
				if p.Now() >= nextWork {
					nextWork += 37 * time.Microsecond
					if err := p.WriteUint64(scratch, uint64(p.Now())); err != nil {
						return err
					}
				}
				if pollIdle {
					p.PollIdle(pollPeriod, nextWork, slots, pollBytes)
				} else {
					p.Sleep(pollPeriod)
				}
			}
		}

		var threads []*Thread
		for _, fn := range []func(*Thread) error{poller, writer(1, seed, 30), writer(2, seed+1, 20), reader} {
			c, err := th.Spawn(fn)
			if err != nil {
				return err
			}
			threads = append(threads, c)
		}
		for _, c := range threads[1:] {
			if err := th.Join(c); err != nil {
				return err
			}
		}
		th.Sleep(50 * time.Microsecond) // an idle stretch before the stop mark
		if err := th.WriteUint64(slots[0], pollStop); err != nil {
			return err
		}
		return th.Join(threads[0])
	})
	sleptOn = rep.Sched.Census.SleptOn
	rep.Sched.Census = nil
	return log, rep, sleptOn
}

// PollIdle is the loop it replaces: beside a writer on its node and a writer
// and a reader elsewhere, under each protocol, the poller sees every value at
// the time the loop sees it and the run reports the same in every field —
// virtual time, faults, messages, TLB counters per node, events and in-place
// wakes — while most rounds are made without running the poller.
func TestPollIdleIsTheLoop(t *testing.T) {
	for _, proto := range []dsm.Protocol{dsm.WriteInvalidate, dsm.HomeMigrate, dsm.DistributedManager} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", proto, seed), func(t *testing.T) {
				wantLog, wantRep, loopSleptOn := pollProgram(t, proto, seed, false)
				gotLog, gotRep, sleptOn := pollProgram(t, proto, seed, true)
				if !reflect.DeepEqual(gotLog, wantLog) {
					t.Errorf("the poller saw\n%v\nwith PollIdle and\n%v\nwith the loop", gotLog, wantLog)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Errorf("reports differ:\nPollIdle %+v\nloop     %+v", gotRep, wantRep)
				}
				if len(wantLog) < 10 {
					t.Errorf("the poller saw only %d values; the program exercises nothing", len(wantLog))
				}
				if loopSleptOn != 0 || sleptOn < 50 {
					t.Errorf("rounds slept on: %d with PollIdle (want most of them), %d with the loop (want 0)", sleptOn, loopSleptOn)
				}
			})
		}
	}
	t.Run("returns", pollIdleReturnsOnEveryChange)
}

// What makes the skipped rounds sound is that everything which can change what
// a round reads ends the sleep at the next tick: the page mapped anew,
// invalidated or downgraded at this node, a write to it through EnsurePage
// (on a page the node already holds writable nothing else moves), the node's
// VMA set changed. Without a change the sleep ends at until, or when the
// rounds' own charges add up to one the thread has to sleep off.
func pollIdleReturnsOnEveryChange(t *testing.T) {
	const changeAfter = 5*pollPeriod + pollPeriod/2 // between the fifth and the sixth tick
	type env struct {
		p    *Process
		page mem.Addr
		pt   *mem.PageTable
	}
	cases := []struct {
		name   string
		until  time.Duration // relative to the call; 0 for never
		change func(e env)   // applied on node 1's lane changeAfter into the sleep; nil for none
		write  bool          // a second thread on node 1 writes the page changeAfter into the sleep
		ticks  int           // the tick PollIdle must return at
	}{
		{name: "Map", ticks: 6, change: func(e env) { e.pt.Map(e.page.VPN(), e.pt.Lookup(e.page.VPN()).Frame, true) }},
		{name: "Invalidate", ticks: 6, change: func(e env) { e.pt.Invalidate(e.page.VPN()) }},
		{name: "Downgrade", ticks: 6, change: func(e env) { e.pt.Downgrade(e.page.VPN()) }},
		{name: "write", ticks: 6, write: true},
		{name: "VMA set", ticks: 6, change: func(e env) {
			if err := e.p.nodes[1].vmas.Protect(e.page, mem.PageSize, mem.ProtRead); err != nil {
				panic(err)
			}
		}},
		{name: "until", ticks: 4, until: 3*pollPeriod + 1},
		// Nothing changes: 25ns and 48 bytes at 12 GB/s a round, due at 2µs.
		{name: "charges", ticks: int(smallFlush/(25*time.Nanosecond+4*time.Nanosecond)) + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(DefaultParams(2))
			var called, returned time.Duration // of the PollIdle under test
			m.NewProcess(0, func(th *Thread) error {
				page, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "ring")
				if err != nil {
					return err
				}
				writer, err := th.Spawn(func(w *Thread) error {
					if err := w.Migrate(1); err != nil {
						return err
					}
					// Node 1 holds the page writable from here on.
					if err := w.WriteUint64(page+512, 1); err != nil {
						return err
					}
					for called == 0 {
						w.Sleep(pollPeriod / 4)
					}
					if tc.write {
						w.SleepUntil(called + changeAfter)
						return w.WriteUint64(page+512, 2)
					}
					return nil
				})
				if err != nil {
					return err
				}
				poller, err := th.Spawn(func(p *Thread) error {
					if err := p.Migrate(1); err != nil {
						return err
					}
					p.Sleep(100 * time.Microsecond) // the writer owns the page by now
					slots := []mem.Addr{page}
					var buf [pollBytes]byte
					for i := 0; i < 2; i++ { // the first call arms, the round after it is covered
						p.PollIdle(pollPeriod, math.MaxInt64, slots, pollBytes)
						if err := p.Read(page, buf[:]); err != nil {
							return err
						}
					}
					p.pending = 0
					e := env{p: p.proc, page: page, pt: p.proc.mgr.PageTable(1)}
					if tc.change != nil {
						p.task.Engine().After(changeAfter, func() { tc.change(e) })
					}
					until := time.Duration(math.MaxInt64)
					if tc.until != 0 {
						until = p.Now() + tc.until
					}
					called = p.Now()
					p.PollIdle(pollPeriod, until, slots, pollBytes)
					returned = p.Now()
					return nil
				})
				if err != nil {
					return err
				}
				if err := th.Join(poller); err != nil {
					return err
				}
				return th.Join(writer)
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got := returned - called; got != time.Duration(tc.ticks)*pollPeriod {
				t.Fatalf("PollIdle returned after %v, want %d ticks of %v", got, tc.ticks, pollPeriod)
			}
		})
	}
}
