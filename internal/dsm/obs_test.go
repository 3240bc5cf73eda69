package dsm

import (
	"math"
	"testing"
	"time"

	"dex/internal/obs"
)

// handClock is a simulation between events whose clock the test sets.
type handClock struct{ now time.Duration }

func (c *handClock) Now() time.Duration { return c.now }
func (*handClock) ExecutingLane() int   { return -1 }

// TestFaultSpanRoundTrip: FaultFromSpan gives back exactly the event
// emitFault wrote, at the edges of every field, from a full recorder and a
// fault recorder alike, and turns down every span that is not fault-level.
func TestFaultSpanRoundTrip(t *testing.T) {
	events := []FaultEvent{ // in time order: Spans() merges by record time
		{Time: 0, Node: 0, Task: -1, Kind: KindInvalidate, Addr: 0},
		{Time: 50 * time.Microsecond, Node: 1, Task: 7, Kind: KindRead, Site: "kmn/assign", Addr: 0x40001008, Latency: 19300 * time.Nanosecond, Retries: 2},
		{Time: 60 * time.Microsecond, Node: 0, Task: 0, Kind: KindWrite, Site: "", Addr: 0, Latency: 0, Retries: 0},
		{Time: 70 * time.Microsecond, Node: 3, Task: 12, Kind: KindWrite, Site: `a="b" c=d`, Addr: 1 << 63, Latency: time.Hour, Retries: math.MaxInt32},
		{Time: 70 * time.Microsecond, Node: 2, Task: 1, Kind: KindRead, Site: "=", Addr: math.MaxUint64, Latency: 1, Retries: 1},
		{Time: 80 * time.Microsecond, Node: 2, Task: -1, Kind: KindInvalidate, Addr: 1 << 63},
	}
	for _, rec := range []*obs.Recorder{obs.NewRecorder(), obs.NewFaultRecorder()} {
		var clock handClock
		rec.Bind(&clock)
		m := &Manager{rec: rec}
		for _, ev := range events {
			now := ev.Time
			clock.now = now
			m.emitFault(ev)
			// Interior, foreign and malformed spans: none may decode.
			rec.SpanAt("dsm", "fault.follower", ev.Node, ev.Task, now, 0, obs.Hex("vpn", 1))
			rec.SpanAt("dsm", "fault.install", ev.Node, ev.Task, now, 0, obs.Hex("addr", 1))
			rec.SpanAt("fabric", obs.FaultRead, ev.Node, ev.Task, now, 0,
				obs.Hex("addr", 1), obs.Int("retries", 0), obs.String("site", ""))
			rec.SpanAt("dsm", obs.FaultWrite, ev.Node, ev.Task, now, 0, obs.Hex("addr", 1), obs.String("retries", "many"))
			rec.SpanAt("dsm", obs.Invalidate, ev.Node, -1, now, 0, obs.String("addr", "0xzz"))
		}
		got := faultEvents(rec)
		if len(got) != len(events) {
			t.Fatalf("decoded %d events from %d spans, want %d", len(got), len(rec.Spans()), len(events))
		}
		for i, ev := range events {
			if got[i] != ev {
				t.Errorf("event %d:\n got %+v\nwant %+v", i, got[i], ev)
			}
		}
		if h := rec.Histogram(obs.FaultWrite); h == nil || h.Count != 2 {
			t.Errorf("fault.write histogram = %v, want 2 observations", h)
		}
	}
	if _, ok := FaultFromSpan(obs.Span{}); ok {
		t.Error("the zero span decoded")
	}
}
