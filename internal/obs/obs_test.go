package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeSim is a simulation whose clock and executing lane a test sets by hand.
type fakeSim struct {
	now  time.Duration
	lane int
}

func (f *fakeSim) Now() time.Duration { return f.now }
func (f *fakeSim) ExecutingLane() int { return f.lane }

// TestNilRecorderIsSafe exercises every method on the disabled (nil)
// recorder: the zero-overhead-when-disabled contract is that none of them
// panic or allocate state.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Bind(&fakeSim{})
	if r.SamplePeriod() != 0 {
		t.Fatal("nil recorder has a sample period")
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder has a clock")
	}
	r.Span("c", "n", 0, 0, 0)
	r.SpanAt("c", "n", 0, 0, 0, time.Microsecond)
	r.Observe("h", time.Microsecond)
	r.AddGauge("g", func() float64 { return 1 })
	r.AddNodeGauge("g", 0, func() float64 { return 1 })
	r.SampleNowAt(time.Microsecond)
	r.ConfigureLanes(4)
	if r.OnLane(2) != nil || r.OnLane(-1) != nil {
		t.Fatal("OnLane of the nil recorder is not the nil recorder")
	}
	r.OnLane(0).Span("c", "n", 0, 0, 0)
	if r.Spans() != nil || r.Histogram("h") != nil || r.Histograms() != nil || r.Samples() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketBoundaries pins the power-of-two bucket layout: it is
// computed with integer bit arithmetic only, so these exact assignments must
// hold on every platform.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{time.Microsecond, 10},         // 1000 ns
		{32767 * time.Nanosecond, 15},  // 2^15 - 1
		{32768 * time.Nanosecond, 16},  // 2^15
		{time.Second, 30},              // 1e9 ns < 2^30
		{time.Duration(1) << 40, 41},   // exactly 2^40
		{time.Duration(1)<<40 - 1, 40}, // just below
		{-5 * time.Nanosecond, 0},      // negative clamps to zero
		{time.Duration(^uint64(0) >> 1), 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.bucket)
		}
	}
	// Bucket upper bounds: bucket i holds durations up to 2^i - 1.
	if BucketBound(0) != 0 {
		t.Errorf("BucketBound(0) = %v", BucketBound(0))
	}
	if BucketBound(10) != 1023 {
		t.Errorf("BucketBound(10) = %v, want 1023", BucketBound(10))
	}
	for _, c := range cases {
		if c.d < 0 {
			continue
		}
		if c.d > BucketBound(c.bucket) {
			t.Errorf("duration %v above its bucket %d bound %v", c.d, c.bucket, BucketBound(c.bucket))
		}
		if c.bucket > 0 && c.d <= BucketBound(c.bucket-1) {
			t.Errorf("duration %v fits bucket %d already", c.d, c.bucket-1)
		}
	}
}

// TestHistogramQuantiles checks the nearest-rank quantile walk, including
// the min/max clamping that makes single-bucket histograms exact.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Min != 10*time.Microsecond || h.Max != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	p50 := h.Quantile(0.50)
	if p50 < 10*time.Microsecond || p50 >= 5*time.Millisecond {
		t.Fatalf("p50 = %v, want in the fast bucket", p50)
	}
	// p95 and p99 land in the slow bucket; its bound is clamped to Max.
	if got := h.Quantile(0.95); got != 5*time.Millisecond {
		t.Fatalf("p95 = %v, want 5ms", got)
	}
	if got := h.Quantile(0.99); got != 5*time.Millisecond {
		t.Fatalf("p99 = %v, want 5ms", got)
	}
	if got := h.Quantile(0); got != h.Min {
		t.Fatalf("q=0 -> %v, want min", got)
	}
	if got := h.Quantile(1); got != h.Max {
		t.Fatalf("q=1 -> %v, want max", got)
	}
	if got := h.Mean(); got != (90*10*time.Microsecond+10*5*time.Millisecond)/100 {
		t.Fatalf("mean = %v", got)
	}
}

// buildRecorder records a small fixed scene.
func buildRecorder() *Recorder {
	r := NewRecorder()
	sim := &fakeSim{lane: -1}
	r.Bind(sim)
	r.AddNodeGauge("resident_pages", 1, func() float64 { return 42 })
	r.AddGauge("inflight", func() float64 { return 1.5 })

	sim.now = 10 * time.Microsecond
	r.SpanAt("dsm", "fault.read", 0, 3, 2*time.Microsecond, 8*time.Microsecond,
		Hex("addr", 0x7f0000), Int("retries", 0), String("site", "app.go:12"))
	r.Observe("fault.read", 8*time.Microsecond)
	r.SampleNowAt(sim.now)
	sim.now = 25 * time.Microsecond
	r.Span("fabric", "msg.small", 1, 1000, 20*time.Microsecond, Int("bytes", 64))
	r.Observe("msg.small", 5*time.Microsecond)
	r.SampleNowAt(sim.now)
	return r
}

// TestWriteTraceDeterministicAndValid: two identically built recorders must
// serialize to the same bytes, and those bytes must be valid trace-event
// JSON with the expected structure.
func TestWriteTraceDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildRecorder().WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildRecorder().WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("trace bytes differ between identical recordings:\n%s\n---\n%s", a.String(), b.String())
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a.String())
	}
	// 2 process_name records, 2 spans, 4 counter samples (2 gauges x 2 ticks).
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8:\n%s", len(doc.TraceEvents), a.String())
	}
	var spans, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if spans != 2 || counters != 4 || meta != 2 {
		t.Fatalf("event mix spans=%d counters=%d meta=%d", spans, counters, meta)
	}
	// The fault span's ts must render 2µs as integer-formatted microseconds.
	if !strings.Contains(a.String(), `"ts":2.000,"dur":8.000`) {
		t.Fatalf("fault span timing not rendered as fixed-point µs:\n%s", a.String())
	}
}

// TestSpansExportInTimeLaneEmissionOrder: spans come out by record time, then
// lane (global first), then the order their lane emitted them in — whatever
// order the lanes ran in.
func TestSpansExportInTimeLaneEmissionOrder(t *testing.T) {
	r := NewRecorder()
	sim := &fakeSim{now: 5 * time.Microsecond}
	r.Bind(sim)
	emit := func(lane int, name string) {
		sim.lane = lane
		r.SpanAt("c", name, lane, 0, 0, 0)
	}
	emit(2, "lane2.a")
	emit(2, "lane2.b")
	emit(0, "lane0.a")
	emit(-1, "global.a")
	emit(0, "lane0.b")
	sim.now = 4 * time.Microsecond // lane 1 runs last but its clock is behind
	emit(1, "lane1.early")
	var got []string
	for _, s := range r.Spans() {
		got = append(got, s.Name)
	}
	want := "lane1.early global.a lane0.a lane0.b lane2.a lane2.b"
	if strings.Join(got, " ") != want {
		t.Fatalf("export order %v, want %s", got, want)
	}
}

// TestWriteMetrics smoke-checks the text summary.
func TestWriteMetrics(t *testing.T) {
	var out bytes.Buffer
	if err := buildRecorder().WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fault.read", "msg.small", "p95", "samples: 4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, s)
		}
	}
}

// TestUsec pins the integer µs formatter.
func TestUsec(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.000"},
		{999 * time.Nanosecond, "0.999"},
		{time.Microsecond, "1.000"},
		{1500 * time.Nanosecond, "1.500"},
		{time.Second, "1000000.000"},
		{-1500 * time.Nanosecond, "-1.500"},
	}
	for _, c := range cases {
		if got := usec(c.d); got != c.want {
			t.Errorf("usec(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
