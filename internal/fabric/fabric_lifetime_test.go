package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/sim"
)

// lifeMsg is an expendable message known by its id.
type lifeMsg struct{ id int }

func (*lifeMsg) Size() int        { return 64 }
func (*lifeMsg) ChaosExpendable() {}

// Every flight a run makes is retired exactly once, under every fault at
// once: drops, duplicates, an RNR storm, a partition and a node that dies
// mid-run. A second retire or an event on a retired flight panics, so a run
// that finishes retired none twice; after it the free list holds every flight
// made. Each message is handled as often as its verdict says — none if
// dropped, twice if duplicated — except that a dead node's traffic may vanish
// at arrival, and exactly the injector's dead-node drops account for that.
func TestFlightLifetimeUnderChaos(t *testing.T) {
	const nodes, dead, perLink, pages = 4, 3, 40, 24
	all := chaos.Any
	plan := &chaos.Plan{
		Seed:       17,
		Drop:       []chaos.LinkRule{{Src: all, Dst: all, Prob: 0.15}},
		Dup:        []chaos.LinkRule{{Src: all, Dst: all, Prob: 0.2}},
		Delay:      []chaos.DelayRule{{Src: all, Dst: all, Prob: 0.3, Jitter: chaos.Duration(20 * time.Microsecond)}},
		RNRStorms:  []chaos.RNRStorm{{Node: 1, From: chaos.Duration(60 * time.Microsecond), To: chaos.Duration(300 * time.Microsecond)}},
		Partitions: []chaos.Partition{{A: []int{0}, B: []int{2}, From: chaos.Duration(30 * time.Microsecond), To: chaos.Duration(250 * time.Microsecond)}},
	}
	if err := plan.Validate(nodes); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	p := testParams(nodes)
	p.RecvPoolSlots = 4 // run the posted receives out as well
	p.SinkChunks = pages
	eng := sim.NewEngine(1)
	net := New(eng, p)
	inj := chaos.NewInjector(plan, nodes)
	net.SetChaos(inj)
	// shadow draws the verdicts the network draws: the same plan, asked in
	// the same per-link order (just before each send, which draws first).
	shadow := chaos.NewInjector(plan, nodes)

	type sent struct {
		src, dst int
		want     int // deliveries its verdict says
		pr       *PageRecv
	}
	var msgs []sent
	handled := map[int]int{}
	for n := 0; n < nodes; n++ {
		net.SetHandler(n, func(_ int, m Message) { handled[m.(*lifeMsg).id]++ })
	}
	verdict := func(src, dst int, pr *PageRecv) *lifeMsg {
		v := shadow.Verdict(0, src, dst, 64, true)
		want := 1
		if v.Drop {
			want = 0
		} else if v.Dup {
			want = 2
		}
		msgs = append(msgs, sent{src: src, dst: dst, want: want, pr: pr})
		return &lifeMsg{id: len(msgs) - 1}
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			eng.Spawn(fmt.Sprintf("send %d->%d", src, dst), func(tk *sim.Task) {
				for i := 0; i < perLink; i++ {
					net.Send(tk, src, dst, verdict(src, dst, nil))
					tk.Sleep(time.Duration(1+i%5) * time.Microsecond)
				}
			})
		}
	}
	// Page units from 0 and 2 to 1, through the storm and the partition.
	data := make([]byte, 4096)
	for _, src := range []int{0, 2} {
		eng.Spawn(fmt.Sprintf("pages %d->1", src), func(tk *sim.Task) {
			prs := make([]*PageRecv, pages/2)
			for i := range prs {
				prs[i] = net.PreparePageRecv(tk, src, 1)
			}
			for _, pr := range prs {
				net.SendPage(tk, src, 1, pr, data, verdict(src, 1, pr))
				tk.Sleep(7 * time.Microsecond)
			}
		})
	}
	eng.After(120*time.Microsecond, func() { inj.MarkDead(dead) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if net.made == 0 || len(net.free) != net.made {
		t.Errorf("%d flights made, %d back on the free list", net.made, len(net.free))
	}
	lost := 0 // deliveries the dead node's traffic lost at arrival
	for id, s := range msgs {
		got := handled[id]
		if s.src == dead || s.dst == dead {
			if got > s.want {
				t.Errorf("message %d (%d->%d): handled %d times, verdict says %d", id, s.src, s.dst, got, s.want)
			}
			lost += s.want - got
			continue
		}
		if got != s.want {
			t.Errorf("message %d (%d->%d): handled %d times, verdict says %d", id, s.src, s.dst, got, s.want)
		}
		if s.pr != nil && (s.pr.data == nil) != (s.want == 0) {
			t.Errorf("page %d: landed %v with a verdict of %d deliveries", id, s.pr.data != nil, s.want)
		}
	}
	if deadDrops := int(inj.Stats().Dropped - shadow.Stats().Dropped); lost == 0 || lost != deadDrops {
		t.Errorf("dead node's traffic: %d deliveries lost, %d dead-node drops counted", lost, deadDrops)
	}
	if st := inj.Stats(); st.Duplicated == 0 || st.StormStalled == 0 || st.Held == 0 || net.Stats().RecvRNRStalls == 0 {
		t.Errorf("a fault never fired: %+v, %d RNR stalls", st, net.Stats().RecvRNRStalls)
	}
}

// A retired flight names the connection it last rode when it is retired
// again or run as an event.
func TestRetiredFlightPanics(t *testing.T) {
	net := New(sim.NewEngine(1), testParams(2))
	f := net.newFlight()
	*f = flight{qp: &net.conn(0, 1).data, m: &lifeMsg{}}
	net.retire(f)
	for name, step := range map[string]func(){"retire": func() { net.retire(f) }, "event": f.RunEvent} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "link0->1") {
					t.Errorf("%s of a retired flight: panic %q, want one naming link0->1", name, msg)
				}
			}()
			step()
		}()
	}
}
