package chaos

import (
	"math/rand"
	"time"
)

// Verdict is the injector's decision for one message (or one page-transfer
// unit: an RDMA placement and its completion message share a single verdict
// so data and control never diverge). Drop and Dup are mutually exclusive.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay time.Duration
}

// Stats counts the faults actually injected. All counters advance in
// deterministic simulation order.
type Stats struct {
	Dropped      uint64 `json:"dropped"`
	DroppedBytes uint64 `json:"dropped_bytes"`
	Duplicated   uint64 `json:"duplicated"`
	Delayed      uint64 `json:"delayed"`
	Held         uint64 `json:"held"`
	StormStalled uint64 `json:"storm_stalled"`
	Crashes      int    `json:"crashes"`
}

// Injector executes a Plan. It owns one private PRNG stream per directed
// link; the fabric consults it once per send. Sends on one link execute in a
// deterministic order (they run on the source node's lane, or in serialized
// windows), which makes every fault schedule a pure function of (seed, plan)
// — streams of different links never interleave.
//
// The injector is also the ground truth for node liveness: the fabric asks
// NodeDead to drop traffic of crashed machines, and the lease protocol in
// core confirms a suspected node against it before declaring death (a
// partition or delay storm can expire a lease without the node being gone).
type Injector struct {
	plan  *Plan
	nodes int
	links []*rand.Rand // links[src*nodes+dst]
	dead  []bool
	stats Stats
}

// splitmix64 derives statistically independent per-link seeds from the plan
// seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewInjector builds an injector for a cluster of the given size. The plan
// must be non-nil and validated.
func NewInjector(plan *Plan, nodes int) *Injector {
	inj := &Injector{
		plan:  plan,
		nodes: nodes,
		links: make([]*rand.Rand, nodes*nodes),
		dead:  make([]bool, nodes),
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			seed := splitmix64(uint64(plan.Seed) ^ splitmix64(uint64(src)<<32|uint64(dst)))
			inj.links[src*nodes+dst] = rand.New(rand.NewSource(int64(seed)))
		}
	}
	return inj
}

// Plan returns the plan this injector executes.
func (inj *Injector) Plan() *Plan { return inj.plan }

// Verdict decides the fate of one message of size bytes sent src→dst at
// virtual time now. Only expendable messages (idempotent protocol traffic
// covered by retransmission) may be dropped or duplicated; delay jitter
// applies to everything. Each matching rule consumes exactly one draw from
// the link's private PRNG stream, so the fault schedule is reproducible for
// a given per-link send order.
func (inj *Injector) Verdict(now time.Duration, src, dst, bytes int, expendable bool) Verdict {
	var v Verdict
	rng := inj.links[src*inj.nodes+dst]
	if expendable {
		for _, r := range inj.plan.Drop {
			if r.matches(now, src, dst) && rng.Float64() < r.Prob {
				v.Drop = true
				inj.stats.Dropped++
				inj.stats.DroppedBytes += uint64(bytes)
				return v
			}
		}
		for _, r := range inj.plan.Dup {
			if r.matches(now, src, dst) && rng.Float64() < r.Prob {
				v.Dup = true
				inj.stats.Duplicated++
				break
			}
		}
	}
	for _, r := range inj.plan.Delay {
		if r.matches(now, src, dst) && rng.Float64() < r.Prob {
			v.Delay += time.Duration(rng.Int63n(int64(r.Jitter))) + 1
		}
	}
	if v.Delay > 0 {
		inj.stats.Delayed++
	}
	return v
}

// HeldUntil reports whether a message sent src→dst at time now crosses an
// active partition, and if so until when delivery must be held. When several
// partitions apply, the latest heal time wins.
func (inj *Injector) HeldUntil(now time.Duration, src, dst int) (time.Duration, bool) {
	var until time.Duration
	held := false
	for _, p := range inj.plan.Partitions {
		if inWindow(now, p.From, p.To) && p.separates(src, dst) {
			if p.To.D() > until {
				until = p.To.D()
			}
			held = true
		}
	}
	if held {
		inj.stats.Held++
	}
	return until, held
}

// RNRUntil reports whether the receiver dst is inside an RNR storm at time
// now, and until when the storm forces receiver-not-ready.
func (inj *Injector) RNRUntil(now time.Duration, dst int) (time.Duration, bool) {
	var until time.Duration
	storming := false
	for _, s := range inj.plan.RNRStorms {
		if s.Node == dst && inWindow(now, s.From, s.To) {
			if s.To.D() > until {
				until = s.To.D()
			}
			storming = true
		}
	}
	if storming {
		inj.stats.StormStalled++
	}
	return until, storming
}

// MarkDead records that a node crashed. From this moment the fabric drops
// all traffic to and from it. Crashes execute on the global lane (serialized
// windows), so no lane reads a liveness flag in the window that writes it.
func (inj *Injector) MarkDead(node int) {
	if !inj.dead[node] {
		inj.dead[node] = true
		inj.stats.Crashes++
	}
}

// NodeDead reports whether a node has crashed. This is ground truth, not a
// suspicion: the lease protocol uses it to distinguish a dead node from a
// partitioned one.
func (inj *Injector) NodeDead(node int) bool {
	return node >= 0 && node < len(inj.dead) && inj.dead[node]
}

// Stats returns the fault counters accumulated so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// CountDrop records a drop decided outside Verdict (dead-endpoint traffic).
func (inj *Injector) CountDrop(bytes int) {
	inj.stats.Dropped++
	inj.stats.DroppedBytes += uint64(bytes)
}
