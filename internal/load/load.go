// Package load is the deterministic open-loop request generator of the
// serving subsystem. A Spec describes per-tenant traffic — Zipf key
// popularity over a keyspace, a base arrival rate shaped by step ramps or
// a diurnal profile, a simulated user population, and token-bucket
// admission parameters — and Schedule expands it into per-tenant request
// streams whose arrival times are virtual-time offsets.
//
// The schedule is a pure function of (Spec, Seed): it involves no wall
// clock, no global state, and no simulator interaction, so the same spec
// always produces byte-identical request streams regardless of host
// parallelism, tracing, or protocol choice. The serving layer replays the
// schedule open-loop — arrivals happen at their scheduled virtual times
// whether or not earlier requests have completed — which is what makes
// shed/admit decisions reproducible and tail latency honest under overload.
package load

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// Op is a request operation.
type Op uint32

// Request operations: point reads and commutative increments. Increments
// commute, so the final store state depends only on the admitted set, not
// on cross-tenant apply order — the property the serving layer's
// exactly-once self-check is built on.
const (
	OpGet  Op = 1
	OpIncr Op = 2
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpIncr:
		return "incr"
	default:
		return fmt.Sprintf("Op(%d)", uint32(o))
	}
}

// Phase is one step of a rate profile: from Start onward the tenant's
// arrival rate is RPS * Factor, until the next phase begins. Before the
// first phase the factor is 1.
type Phase struct {
	Start  time.Duration
	Factor float64
}

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	// Name labels the tenant in reports.
	Name string
	// Keys is the tenant's keyspace size; keys are 0..Keys-1.
	Keys int
	// Zipf is the skew exponent s of the key-popularity distribution
	// (weight of key k proportional to 1/(k+1)^s); 0 means uniform.
	Zipf float64
	// Users is the simulated user population; each request carries a user
	// id drawn uniformly from it.
	Users int
	// RPS is the base arrival rate in requests per second of virtual time.
	RPS float64
	// Phases optionally shape the rate over time (step ramps, diurnal
	// profiles via Diurnal). Empty means a flat rate.
	Phases []Phase
	// ReadFrac is the fraction of requests that are OpGet; the rest are
	// OpIncr.
	ReadFrac float64
	// LimitRPS is the tenant's token-bucket refill rate for admission
	// control at the gateway; 0 disables the limit.
	LimitRPS float64
	// Burst is the token-bucket capacity (defaults to 1 when a limit is
	// set).
	Burst int
}

// Spec is a complete load description.
type Spec struct {
	Tenants  []TenantSpec
	Duration time.Duration
	Seed     int64
}

// Request is one generated request.
type Request struct {
	// At is the scheduled arrival time as an offset from traffic start.
	At time.Duration
	// User is the simulated end-user issuing the request.
	User uint64
	// Key is the key index within the tenant's keyspace.
	Key uint64
	// Op is the operation.
	Op Op
	// Delta is the increment amount for OpIncr (0 for OpGet).
	Delta uint64
}

// Validate checks the spec for nonsensical parameters.
func (s Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("load: duration %v must be positive", s.Duration)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("load: no tenants")
	}
	for i, t := range s.Tenants {
		if t.Keys < 1 {
			return fmt.Errorf("load: tenant %d (%s): keys %d < 1", i, t.Name, t.Keys)
		}
		if t.Users < 1 {
			return fmt.Errorf("load: tenant %d (%s): users %d < 1", i, t.Name, t.Users)
		}
		if t.RPS <= 0 || math.IsInf(t.RPS, 0) || math.IsNaN(t.RPS) {
			return fmt.Errorf("load: tenant %d (%s): rps %g must be positive and finite", i, t.Name, t.RPS)
		}
		// Each check is written so that NaN fails it.
		if !(t.ReadFrac >= 0 && t.ReadFrac <= 1) {
			return fmt.Errorf("load: tenant %d (%s): read fraction %g out of [0,1]", i, t.Name, t.ReadFrac)
		}
		if !(t.Zipf >= 0) || math.IsInf(t.Zipf, 1) {
			return fmt.Errorf("load: tenant %d (%s): zipf exponent %g must be non-negative and finite", i, t.Name, t.Zipf)
		}
		if !(t.LimitRPS >= 0) || math.IsInf(t.LimitRPS, 1) {
			return fmt.Errorf("load: tenant %d (%s): limit rps %g must be non-negative and finite", i, t.Name, t.LimitRPS)
		}
		for j, p := range t.Phases {
			if p.Factor < 0 || math.IsInf(p.Factor, 0) || math.IsNaN(p.Factor) {
				return fmt.Errorf("load: tenant %d (%s): phase %d factor %g invalid", i, t.Name, j, p.Factor)
			}
			if j > 0 && p.Start <= t.Phases[j-1].Start {
				return fmt.Errorf("load: tenant %d (%s): phase starts not strictly increasing", i, t.Name)
			}
		}
	}
	return nil
}

// Fingerprint returns a stable digest of the spec. Experiment harnesses
// include it in memoized cell keys so two different serve configurations
// never share a cell, and dexserve prints it so goldens are
// self-describing.
func (s Spec) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Diurnal builds a stepped approximation of a day/night rate profile:
// steps phases per period, factor 1 + amplitude*sin(2*pi*k/steps), covering
// [0, horizon). Use it as a TenantSpec's Phases.
func Diurnal(horizon, period time.Duration, amplitude float64, steps int) []Phase {
	if steps < 1 || period <= 0 {
		return nil
	}
	var out []Phase
	stepDur := period / time.Duration(steps)
	for at, k := time.Duration(0), 0; at < horizon; at, k = at+stepDur, k+1 {
		f := 1 + amplitude*math.Sin(2*math.Pi*float64(k%steps)/float64(steps))
		if f < 0 {
			f = 0
		}
		out = append(out, Phase{Start: at, Factor: f})
	}
	return out
}

// rng is a small deterministic generator (splitmix64). The package owns
// its PRNG so schedules can never drift with library changes.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// zipfSampler draws key indices with probability proportional to
// 1/(k+1)^s via inverse-CDF lookup over the precomputed cumulative
// weights. s = 0 degenerates to uniform.
type zipfSampler struct {
	cum []float64
}

func newZipf(keys int, s float64) *zipfSampler {
	cum := make([]float64, keys)
	total := 0.0
	for k := 0; k < keys; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	return &zipfSampler{cum: cum}
}

func (z *zipfSampler) draw(r *rng) uint64 {
	u := r.float64() * z.cum[len(z.cum)-1]
	return uint64(sort.SearchFloat64s(z.cum, u))
}

// factorAt evaluates the step-rate profile at time at.
func factorAt(phases []Phase, at time.Duration) float64 {
	f := 1.0
	for _, p := range phases {
		if p.Start > at {
			break
		}
		f = p.Factor
	}
	return f
}

// maxFactor returns the profile's peak factor (the thinning envelope).
func maxFactor(phases []Phase) float64 {
	m := 1.0
	for _, p := range phases {
		if p.Factor > m {
			m = p.Factor
		}
	}
	return m
}

// expectedArrivals is the mean number of t's arrivals in [0, d): its rate
// profile integrated over the window.
func expectedArrivals(t TenantSpec, d time.Duration) float64 {
	sum, from, f := 0.0, time.Duration(0), 1.0
	for _, p := range t.Phases {
		if p.Start >= d {
			break
		}
		if p.Start > from {
			sum += f * float64(p.Start-from)
			from = p.Start
		}
		f = p.Factor
	}
	sum += f * float64(d-from)
	return sum * t.RPS / float64(time.Second)
}

// maxPresized bounds the requests a tenant's stream is sized for up front; a
// longer stream grows past it.
const maxPresized = 1 << 22

// presize is the capacity of a stream of Poisson arrivals with mean n: four
// standard deviations past it, which a stream exceeds about once in 30,000.
func presize(n float64) int {
	return int(min(n+4*math.Sqrt(n)+16, maxPresized))
}

// Schedule expands the spec into one request stream per tenant, sorted by
// arrival time. Arrivals form an inhomogeneous Poisson process (rate
// RPS * factor(t)) generated by thinning against the profile's peak rate,
// so ramps and diurnal swings come out of the same deterministic draw
// sequence. The result is a pure function of the spec. Each stream is
// allocated once, sized from the spec's rate and window.
func Schedule(spec Spec) ([][]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := make([][]Request, len(spec.Tenants))
	for ti, t := range spec.Tenants {
		// Mix the tenant index into the seed so tenants draw independent
		// streams from one spec seed.
		r := newRNG(uint64(spec.Seed)*0x9e3779b97f4a7c15 + uint64(ti)*0xd1342543de82ef95 + 1)
		zipf := newZipf(t.Keys, t.Zipf)
		peak := t.RPS * maxFactor(t.Phases)
		reqs := make([]Request, 0, presize(expectedArrivals(t, spec.Duration)))
		at := time.Duration(0)
		for {
			// Next candidate arrival of the envelope process.
			u := r.float64()
			step := -math.Log(1-u) / peak * float64(time.Second)
			if step >= float64(spec.Duration-at) {
				// Compared before the conversion, which a step past the
				// largest Duration would overflow.
				break
			}
			at += time.Duration(step)
			accept := r.float64()*maxFactor(t.Phases) < factorAt(t.Phases, at)
			// Draw the request body even for thinned candidates so the key
			// stream is a fixed function of the candidate index, not of
			// which candidates survive.
			key := zipf.draw(r)
			user := r.next() % uint64(t.Users)
			op := OpIncr
			var delta uint64
			if r.float64() < t.ReadFrac {
				op = OpGet
			} else {
				delta = 1 + r.next()%1000
			}
			if !accept {
				continue
			}
			reqs = append(reqs, Request{At: at, User: user, Key: key, Op: op, Delta: delta})
		}
		out[ti] = reqs
	}
	return out, nil
}
