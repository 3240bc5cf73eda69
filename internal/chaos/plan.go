// Package chaos is the deterministic fault-injection subsystem. A Plan
// describes faults in simulated time — per-link message drop, duplication
// and delay jitter, bounded network partitions, receiver-not-ready storms,
// and whole-node crashes — and an Injector executes the plan against the
// fabric using its own PRNG stream, seeded from the plan and never shared
// with the simulator's. Because every random draw happens at a
// deterministic point of the event order, the same seed and plan always
// produce the same faults, and an empty plan injects nothing at all.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Any matches every node when used as a LinkRule or DelayRule endpoint.
const Any = -1

// Duration is a time.Duration that marshals to/from JSON as a Go duration
// string ("250µs", "3ms"); plain JSON numbers are accepted as nanoseconds.
type Duration time.Duration

// D converts to a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes either a duration string or a nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("chaos: duration must be a string like \"3ms\" or a nanosecond count")
	}
	*d = Duration(n)
	return nil
}

// LinkRule applies a fault with probability Prob to protocol messages whose
// source and destination match (Any matches every node), inside the virtual
// time window [From, To); To == 0 leaves the window open-ended.
type LinkRule struct {
	Src  int      `json:"src"`
	Dst  int      `json:"dst"`
	Prob float64  `json:"prob"`
	From Duration `json:"from,omitempty"`
	To   Duration `json:"to,omitempty"`
}

func (r LinkRule) matches(now time.Duration, src, dst int) bool {
	if r.Src != Any && r.Src != src {
		return false
	}
	if r.Dst != Any && r.Dst != dst {
		return false
	}
	return inWindow(now, r.From, r.To)
}

// DelayRule adds uniform extra latency in (0, Jitter] with probability Prob
// to matching messages. Delay applies to every message class (it never
// breaks protocol safety), unlike drop/duplicate which only touch
// expendable protocol messages.
type DelayRule struct {
	Src    int      `json:"src"`
	Dst    int      `json:"dst"`
	Prob   float64  `json:"prob"`
	Jitter Duration `json:"jitter"`
	From   Duration `json:"from,omitempty"`
	To     Duration `json:"to,omitempty"`
}

func (r DelayRule) matches(now time.Duration, src, dst int) bool {
	return LinkRule{Src: r.Src, Dst: r.Dst, From: r.From, To: r.To}.matches(now, src, dst)
}

// Partition holds all traffic between node groups A and B during [From, To):
// messages sent across the cut are delivered only once the partition heals.
// Holding (rather than dropping) is safe for every message class.
type Partition struct {
	A    []int    `json:"a"`
	B    []int    `json:"b"`
	From Duration `json:"from"`
	To   Duration `json:"to"`
}

func (p Partition) separates(src, dst int) bool {
	return (contains(p.A, src) && contains(p.B, dst)) ||
		(contains(p.B, src) && contains(p.A, dst))
}

// RNRStorm forces the receiver at Node to answer every incoming message with
// receiver-not-ready during [From, To); the backlog drains when the storm
// ends.
type RNRStorm struct {
	Node int      `json:"node"`
	From Duration `json:"from"`
	To   Duration `json:"to"`
}

// Crash kills the machine at Node at virtual time At: every task running
// there dies instantly and all its traffic is dropped from that point on.
// The origin detects the death through the lease protocol and reclaims the
// node's page ownership.
type Crash struct {
	Node int      `json:"node"`
	At   Duration `json:"at"`
}

// Lease configures the origin-side heartbeat that detects crashed nodes.
// Zero values select the defaults (Period 500µs, Timeout 4ms).
type Lease struct {
	Period  Duration `json:"period,omitempty"`
	Timeout Duration `json:"timeout,omitempty"`
}

// Default lease parameters, used when the plan leaves them zero.
const (
	DefaultLeasePeriod  = 500 * time.Microsecond
	DefaultLeaseTimeout = 4 * time.Millisecond
)

// Plan is a complete deterministic fault schedule. The zero value (or nil)
// is the empty plan: attaching it is exactly equivalent to no chaos at all.
type Plan struct {
	// Seed seeds the injector's private PRNG stream. The simulator's own
	// random source is never consulted for fault decisions, so attaching a
	// plan does not perturb the fault-free portion of the run's randomness.
	Seed       int64       `json:"seed"`
	Drop       []LinkRule  `json:"drop,omitempty"`
	Dup        []LinkRule  `json:"dup,omitempty"`
	Delay      []DelayRule `json:"delay,omitempty"`
	Partitions []Partition `json:"partitions,omitempty"`
	RNRStorms  []RNRStorm  `json:"rnr_storms,omitempty"`
	Crashes    []Crash     `json:"crashes,omitempty"`
	Lease      Lease       `json:"lease,omitempty"`
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Drop) == 0 && len(p.Dup) == 0 && len(p.Delay) == 0 &&
		len(p.Partitions) == 0 && len(p.RNRStorms) == 0 && len(p.Crashes) == 0)
}

// Parse decodes a JSON fault plan. Unknown fields are rejected so typos in
// plan files fail loudly instead of silently injecting nothing.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parse plan: %v", err)
	}
	return &p, nil
}

// Encode renders the plan as indented JSON.
func (p *Plan) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Validate checks the plan against a cluster of the given size. It rejects
// out-of-range nodes, probabilities outside [0, 1], inverted or unbounded
// windows that could livelock the run (a drop probability of 1 must have a
// bounded window), and duplicate crashes of one node.
func (p *Plan) Validate(nodes int) error {
	checkNode := func(what string, n int, anyOK bool) error {
		if anyOK && n == Any {
			return nil
		}
		if n < 0 || n >= nodes {
			return fmt.Errorf("chaos: %s node %d out of range [0, %d)", what, n, nodes)
		}
		return nil
	}
	checkWindow := func(what string, from, to Duration, needBounded bool) error {
		if from < 0 || to < 0 {
			return fmt.Errorf("chaos: %s window has negative bound", what)
		}
		if to != 0 && to <= from {
			return fmt.Errorf("chaos: %s window [%v, %v) is empty", what, from.D(), to.D())
		}
		if needBounded && to == 0 {
			return fmt.Errorf("chaos: %s needs a bounded window (to > 0)", what)
		}
		return nil
	}
	for _, r := range p.Drop {
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("chaos: drop prob %v outside [0, 1]", r.Prob)
		}
		if err := checkNode("drop src", r.Src, true); err != nil {
			return err
		}
		if err := checkNode("drop dst", r.Dst, true); err != nil {
			return err
		}
		// A certain drop forever would retransmit until the event limit.
		if err := checkWindow("drop rule", r.From, r.To, r.Prob >= 1); err != nil {
			return err
		}
	}
	for _, r := range p.Dup {
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("chaos: dup prob %v outside [0, 1]", r.Prob)
		}
		if err := checkNode("dup src", r.Src, true); err != nil {
			return err
		}
		if err := checkNode("dup dst", r.Dst, true); err != nil {
			return err
		}
		if err := checkWindow("dup rule", r.From, r.To, false); err != nil {
			return err
		}
	}
	for _, r := range p.Delay {
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("chaos: delay prob %v outside [0, 1]", r.Prob)
		}
		if r.Jitter <= 0 {
			return fmt.Errorf("chaos: delay jitter must be positive")
		}
		if err := checkNode("delay src", r.Src, true); err != nil {
			return err
		}
		if err := checkNode("delay dst", r.Dst, true); err != nil {
			return err
		}
		if err := checkWindow("delay rule", r.From, r.To, false); err != nil {
			return err
		}
	}
	for _, part := range p.Partitions {
		if len(part.A) == 0 || len(part.B) == 0 {
			return fmt.Errorf("chaos: partition needs two non-empty groups")
		}
		for _, n := range part.A {
			if err := checkNode("partition", n, false); err != nil {
				return err
			}
			if contains(part.B, n) {
				return fmt.Errorf("chaos: node %d on both sides of a partition", n)
			}
		}
		for _, n := range part.B {
			if err := checkNode("partition", n, false); err != nil {
				return err
			}
		}
		// An unhealed partition would hold messages forever.
		if err := checkWindow("partition", part.From, part.To, true); err != nil {
			return err
		}
	}
	for _, s := range p.RNRStorms {
		if err := checkNode("rnr storm", s.Node, false); err != nil {
			return err
		}
		if err := checkWindow("rnr storm", s.From, s.To, true); err != nil {
			return err
		}
	}
	seen := make(map[int]bool)
	for _, c := range p.Crashes {
		if err := checkNode("crash", c.Node, false); err != nil {
			return err
		}
		if c.At < 0 {
			return fmt.Errorf("chaos: crash time %v is negative", c.At.D())
		}
		if seen[c.Node] {
			return fmt.Errorf("chaos: node %d crashes twice", c.Node)
		}
		seen[c.Node] = true
	}
	if p.Lease.Period < 0 || p.Lease.Timeout < 0 {
		return fmt.Errorf("chaos: lease parameters must be non-negative")
	}
	return nil
}

// FlagPlan builds the plan the command-line tools run from their fault flags:
// drop and duplication probabilities on every link, delay jitter up to delay
// on half the messages, a crash of the highest node at crash — each left out
// at zero. The plan's seed mixes in the drop rate's position-independent bits
// so two cells of one sweep never reuse a fault stream, while the same flags
// always rebuild the same plan. A value Validate rejects is reported against
// the flag that carried it.
func FlagPlan(seed int64, nodes int, drop, dup float64, delay, crash time.Duration) (*Plan, error) {
	if crash != 0 && nodes < 2 {
		return nil, errors.New("-crash needs at least 2 nodes") // the highest node would be the origin
	}
	p := &Plan{Seed: seed + int64(drop*1e6)}
	faults := []struct {
		flag string
		val  any
		set  bool
		add  func()
	}{
		{"-drops", drop, drop != 0, func() { p.Drop = []LinkRule{{Src: Any, Dst: Any, Prob: drop}} }},
		{"-dup", dup, dup != 0, func() { p.Dup = []LinkRule{{Src: Any, Dst: Any, Prob: dup}} }},
		{"-delay", delay, delay != 0, func() {
			p.Delay = []DelayRule{{Src: Any, Dst: Any, Prob: 0.5, Jitter: Duration(delay)}}
		}},
		{"-crash", crash, crash != 0, func() { p.Crashes = []Crash{{Node: nodes - 1, At: Duration(crash)}} }},
	}
	for _, f := range faults {
		if !f.set {
			continue
		}
		f.add()
		if err := p.Validate(nodes); err != nil {
			return nil, fmt.Errorf("%s %v: %w", f.flag, f.val, err)
		}
	}
	return p, nil
}

// LeasePeriod returns the configured heartbeat period, or the default.
func (p *Plan) LeasePeriod() time.Duration {
	if p != nil && p.Lease.Period > 0 {
		return p.Lease.Period.D()
	}
	return DefaultLeasePeriod
}

// LeaseTimeout returns the configured lease expiry, or the default.
func (p *Plan) LeaseTimeout() time.Duration {
	if p != nil && p.Lease.Timeout > 0 {
		return p.Lease.Timeout.D()
	}
	return DefaultLeaseTimeout
}

// Fingerprint returns a stable textual digest of the plan, for keying
// memoized configurations.
func (p *Plan) Fingerprint() string {
	if p == nil {
		return "chaos:nil"
	}
	return fmt.Sprintf("chaos:%+v", *p)
}

func inWindow(now time.Duration, from, to Duration) bool {
	if now < from.D() {
		return false
	}
	return to == 0 || now < to.D()
}

func contains(s []int, n int) bool {
	for _, v := range s {
		if v == n {
			return true
		}
	}
	return false
}
