package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	src := `{
		"seed": 7,
		"drop": [{"src": -1, "dst": -1, "prob": 0.05}],
		"dup": [{"src": 0, "dst": 1, "prob": 0.01}],
		"delay": [{"src": -1, "dst": -1, "prob": 0.5, "jitter": "20us"}],
		"partitions": [{"a": [0], "b": [1], "from": "1ms", "to": "2ms"}],
		"rnr_storms": [{"node": 1, "from": "500us", "to": "600us"}],
		"crashes": [{"node": 1, "at": "3ms"}],
		"lease": {"period": "250us", "timeout": "2ms"}
	}`
	p, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 7 || len(p.Drop) != 1 || p.Drop[0].Prob != 0.05 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	if p.Delay[0].Jitter.D() != 20*time.Microsecond {
		t.Fatalf("jitter = %v", p.Delay[0].Jitter.D())
	}
	if p.Crashes[0].At.D() != 3*time.Millisecond {
		t.Fatalf("crash at = %v", p.Crashes[0].At.D())
	}
	if p.LeasePeriod() != 250*time.Microsecond || p.LeaseTimeout() != 2*time.Millisecond {
		t.Fatalf("lease = %v/%v", p.LeasePeriod(), p.LeaseTimeout())
	}
	if err := p.Validate(2); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p2, err := Parse(enc)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if p2.Fingerprint() != p.Fingerprint() {
		t.Fatalf("round trip changed plan:\n%s\nvs\n%s", p.Fingerprint(), p2.Fingerprint())
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	if _, err := Parse([]byte(`{"seed": 1, "dorp": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseNumericDuration(t *testing.T) {
	p, err := Parse([]byte(`{"crashes": [{"node": 0, "at": 1000}]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Crashes[0].At.D() != time.Microsecond {
		t.Fatalf("at = %v, want 1µs", p.Crashes[0].At.D())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"bad prob", Plan{Drop: []LinkRule{{Src: Any, Dst: Any, Prob: 1.5}}}, "prob"},
		{"bad node", Plan{Crashes: []Crash{{Node: 9}}}, "out of range"},
		{"double crash", Plan{Crashes: []Crash{{Node: 1}, {Node: 1}}}, "crashes twice"},
		{"certain drop forever", Plan{Drop: []LinkRule{{Src: Any, Dst: Any, Prob: 1}}}, "bounded"},
		{"unbounded partition", Plan{Partitions: []Partition{{A: []int{0}, B: []int{1}, From: 0, To: 0}}}, "bounded"},
		{"overlapping partition groups", Plan{Partitions: []Partition{{A: []int{0}, B: []int{0}, From: 0, To: Duration(time.Millisecond)}}}, "both sides"},
		{"empty window", Plan{Dup: []LinkRule{{Src: Any, Dst: Any, Prob: 0.1, From: Duration(2), To: Duration(1)}}}, "empty"},
		{"zero jitter", Plan{Delay: []DelayRule{{Src: Any, Dst: Any, Prob: 0.1}}}, "jitter"},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan not empty")
	}
	if !(&Plan{Seed: 9}).Empty() {
		t.Fatal("seed-only plan not empty")
	}
	if (&Plan{Crashes: []Crash{{Node: 0}}}).Empty() {
		t.Fatal("crash plan reported empty")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{
		Seed:  42,
		Drop:  []LinkRule{{Src: Any, Dst: Any, Prob: 0.3}},
		Dup:   []LinkRule{{Src: Any, Dst: Any, Prob: 0.2}},
		Delay: []DelayRule{{Src: Any, Dst: Any, Prob: 0.5, Jitter: Duration(10 * time.Microsecond)}},
	}
	run := func() []Verdict {
		inj := NewInjector(plan, 4)
		var out []Verdict
		for i := 0; i < 200; i++ {
			out = append(out, inj.Verdict(time.Duration(i)*time.Microsecond, i%4, (i+1)%4, 64, true))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	// With these probabilities over 200 draws, every fault class must occur.
	var drops, dups, delays int
	for _, v := range a {
		if v.Drop {
			drops++
		}
		if v.Dup {
			dups++
		}
		if v.Delay > 0 {
			delays++
		}
	}
	if drops == 0 || dups == 0 || delays == 0 {
		t.Fatalf("fault mix empty: drops=%d dups=%d delays=%d", drops, dups, delays)
	}
}

func TestVerdictRespectsExpendable(t *testing.T) {
	plan := &Plan{
		Seed: 1,
		Drop: []LinkRule{{Src: Any, Dst: Any, Prob: 1, To: Duration(time.Second)}},
		Dup:  []LinkRule{{Src: Any, Dst: Any, Prob: 1}},
	}
	inj := NewInjector(plan, 2)
	for i := 0; i < 50; i++ {
		v := inj.Verdict(0, 0, 1, 32, false)
		if v.Drop || v.Dup {
			t.Fatalf("non-expendable message got drop/dup verdict: %+v", v)
		}
	}
	if v := inj.Verdict(0, 0, 1, 32, true); !v.Drop {
		t.Fatalf("expendable message survived a certain drop: %+v", v)
	}
}

func TestVerdictWindows(t *testing.T) {
	plan := &Plan{
		Seed: 1,
		Drop: []LinkRule{{Src: Any, Dst: Any, Prob: 1, From: Duration(time.Millisecond), To: Duration(2 * time.Millisecond)}},
	}
	inj := NewInjector(plan, 2)
	if v := inj.Verdict(500*time.Microsecond, 0, 1, 32, true); v.Drop {
		t.Fatal("drop before window")
	}
	if v := inj.Verdict(1500*time.Microsecond, 0, 1, 32, true); !v.Drop {
		t.Fatal("no drop inside window")
	}
	if v := inj.Verdict(2500*time.Microsecond, 0, 1, 32, true); v.Drop {
		t.Fatal("drop after window")
	}
}

func TestPartitionHold(t *testing.T) {
	plan := &Plan{Partitions: []Partition{{
		A: []int{0, 2}, B: []int{1},
		From: Duration(time.Millisecond), To: Duration(3 * time.Millisecond),
	}}}
	inj := NewInjector(plan, 3)
	if _, held := inj.HeldUntil(2*time.Millisecond, 0, 2); held {
		t.Fatal("same-side traffic held")
	}
	until, held := inj.HeldUntil(2*time.Millisecond, 1, 2)
	if !held || until != 3*time.Millisecond {
		t.Fatalf("cross traffic: held=%v until=%v", held, until)
	}
	if _, held := inj.HeldUntil(4*time.Millisecond, 0, 1); held {
		t.Fatal("healed partition still holding")
	}
}

func TestNodeDeath(t *testing.T) {
	inj := NewInjector(&Plan{}, 4)
	if inj.NodeDead(2) {
		t.Fatal("node dead before crash")
	}
	inj.MarkDead(2)
	inj.MarkDead(2) // idempotent
	if !inj.NodeDead(2) || inj.Stats().Crashes != 1 {
		t.Fatalf("dead=%v crashes=%d", inj.NodeDead(2), inj.Stats().Crashes)
	}
	if inj.NodeDead(1) || inj.NodeDead(3) {
		t.Fatal("a crash marked a neighbour dead")
	}
}

func TestRNRStorm(t *testing.T) {
	plan := &Plan{RNRStorms: []RNRStorm{{Node: 1, From: Duration(time.Millisecond), To: Duration(2 * time.Millisecond)}}}
	inj := NewInjector(plan, 2)
	if _, on := inj.RNRUntil(1500*time.Microsecond, 0); on {
		t.Fatal("storm on wrong node")
	}
	until, on := inj.RNRUntil(1500*time.Microsecond, 1)
	if !on || until != 2*time.Millisecond {
		t.Fatalf("storm: on=%v until=%v", on, until)
	}
}

// FuzzPlan feeds arbitrary bytes through the plan's whole life: Parse, then
// Validate against clusters of one to eight nodes, never panics; a plan that
// validates survives Encode → Parse → Validate; and an injector built from it
// answers every link at every instant a window opens or closes. The corpus
// (testdata/fuzz/FuzzPlan) is seeded from the plans in README.md and the
// tools' tests, the origin-crash plan among them.
func FuzzPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		for nodes := 1; nodes <= 8; nodes++ {
			if p.Validate(nodes) != nil {
				continue
			}
			enc, err := p.Encode()
			if err != nil {
				t.Fatalf("%d nodes: a valid plan does not encode: %v", nodes, err)
			}
			q, err := Parse(enc)
			if err != nil {
				t.Fatalf("%d nodes: the encoding of a valid plan does not parse: %v\n%s", nodes, err, enc)
			}
			if err := q.Validate(nodes); err != nil {
				t.Fatalf("%d nodes: a valid plan is invalid after a round trip: %v\n%s", nodes, err, enc)
			}
			// The instants worth asking about: time zero and both sides of
			// every window bound.
			instants := []time.Duration{0}
			edge := func(ds ...Duration) {
				for _, d := range ds {
					instants = append(instants, d.D()-1, d.D(), d.D()+1)
				}
			}
			for _, r := range q.Drop {
				edge(r.From, r.To)
			}
			for _, r := range q.Dup {
				edge(r.From, r.To)
			}
			for _, r := range q.Delay {
				edge(r.From, r.To)
			}
			for _, r := range q.Partitions {
				edge(r.From, r.To)
			}
			for _, r := range q.RNRStorms {
				edge(r.From, r.To)
			}
			inj := NewInjector(q, nodes)
			for _, now := range instants {
				for src := 0; src < nodes; src++ {
					for dst := 0; dst < nodes; dst++ {
						inj.Verdict(now, src, dst, 64, true)
						inj.Verdict(now, src, dst, 4096, false)
						inj.HeldUntil(now, src, dst)
					}
					inj.RNRUntil(now, src)
				}
			}
			q.LeasePeriod()
			q.LeaseTimeout()
			q.Fingerprint()
		}
	})
}
