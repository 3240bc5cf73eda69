package dex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dex/internal/chaos"
)

// obsWorkload is a small but representative program: it migrates threads to
// every node, shares pages read-mostly and write-hot, and migrates back —
// exercising faults (leader and follower), ownership transfers,
// invalidations, and both migration directions. The futex-gated read at the
// end releases the co-located workers simultaneously onto a page the main
// thread owns, so their read faults coalesce (leader/follower).
func obsWorkload(nodes int) func(*Thread) error {
	return func(th *Thread) error {
		addr, err := th.Mmap(10*PageSize, ProtRead|ProtWrite, "shared")
		if err != nil {
			return err
		}
		flag, hot := addr+8*PageSize, addr+9*PageSize
		if err := th.WriteUint64(hot, 7); err != nil {
			return err
		}
		var workers []*Thread
		for n := 1; n < nodes; n++ {
			// Two workers per node so the gated read coalesces.
			for k := 0; k < 2; k++ {
				n := n
				w, err := th.Spawn(func(w *Thread) error {
					if err := w.Migrate(n); err != nil {
						return err
					}
					for i := 0; i < 8; i++ {
						off := Addr(uint64(i) * PageSize)
						if _, err := w.AddUint64(addr+off, 1); err != nil {
							return err
						}
						if _, err := w.ReadUint64(addr); err != nil {
							return err
						}
					}
					if _, err := w.FutexWait(flag, 0); err != nil {
						return err
					}
					if _, err := w.ReadUint64(hot); err != nil {
						return err
					}
					return w.MigrateBack()
				})
				if err != nil {
					return err
				}
				workers = append(workers, w)
			}
		}
		th.Compute(5 * time.Millisecond) // let every worker reach the futex
		if err := th.WriteUint32(flag, 1); err != nil {
			return err
		}
		if _, err := th.FutexWake(flag, len(workers)); err != nil {
			return err
		}
		for _, w := range workers {
			th.Join(w)
		}
		return nil
	}
}

func runTraced(t *testing.T, seed int64) (Report, *bytes.Buffer) {
	t.Helper()
	rec := NewRecorder()
	cluster := NewCluster(3, WithSeed(seed), WithObserver(rec))
	report, err := cluster.Run(obsWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return report, &buf
}

// TestTraceByteIdenticalSameSeed is the export determinism guarantee: two
// traced runs of the same seed produce byte-identical Perfetto JSON.
func TestTraceByteIdenticalSameSeed(t *testing.T) {
	_, a := runTraced(t, 7)
	_, b := runTraced(t, 7)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	if a.Len() < 1000 {
		t.Fatalf("trace suspiciously small (%d bytes):\n%s", a.Len(), a.String())
	}
	// And the JSON is loadable.
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("traceEvents missing")
	}
}

// TestObserverDoesNotPerturbRun is the zero-interference guarantee: the
// report of a traced run equals the report of an untraced run of the same
// seed, field for field — but for the one field that is itself observation,
// the event census a bound recorder turns on, whose kinds must add up to the
// events both runs count.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	traced, _ := runTraced(t, 11)
	cs := traced.Sched.Census
	if cs == nil {
		t.Fatal("a traced run reports no event census")
	}
	sum := cs.TaskStarts + cs.SleepWakes + cs.Unparks + cs.ParkTimeouts + traced.Sched.InPlaceWakes
	for _, r := range cs.Runners {
		sum += r.Events
	}
	if sum != traced.Sched.Events {
		t.Fatalf("census kinds add up to %d of %d events: %+v", sum, traced.Sched.Events, cs)
	}
	traced.Sched.Census = nil

	cluster := NewCluster(3, WithSeed(11))
	plain, err := cluster.Run(obsWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("observer changed the simulation:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
}

// TestObserverRecordsEveryLayer checks that fault, migration, and fabric
// spans plus histograms and gauge samples all appear in one traced run.
func TestObserverRecordsEveryLayer(t *testing.T) {
	rec := NewRecorder()
	cluster := NewCluster(3, WithSeed(3), WithObserver(rec))
	if _, err := cluster.Run(obsWorkload(3)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range rec.Spans() {
		seen[s.Name] = true
	}
	for _, want := range []string{
		"fault.read", "fault.write", "fault.follower", "fault.request",
		"fault.install", "origin.serve", "invalidate",
		"migrate.forward", "migrate.pack", "migrate.wire", "migrate.dispatch",
		"migrate.backward", "msg.small", "msg.page",
	} {
		if !seen[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
	for _, want := range []string{"fault.read", "fault.write", "migrate.forward", "msg.small", "msg.page"} {
		if h := rec.Histogram(want); h == nil || h.Count == 0 {
			t.Errorf("no %q histogram observations", want)
		}
	}
	if rec.Samples() == 0 {
		t.Error("no gauge samples recorded")
	}
}

// profileBytes renders every analysis of a profile.
func profileBytes(tr *Trace, elapsed time.Duration) []byte {
	var b bytes.Buffer
	tr.Report(&b, 10)
	fmt.Fprintln(&b, tr.AffinitySuggestions(1))
	fmt.Fprintln(&b, tr.Timeline(elapsed/20))
	return b.Bytes()
}

// TestProfileSameFromFullAndFaultRecorder: a profile is a function of the
// recorder's fault-level spans only, so a full recorder (which also holds
// every other layer's spans and the gauge samples) and a fault recorder of
// the same seed give the same profile.
func TestProfileSameFromFullAndFaultRecorder(t *testing.T) {
	run := func(rec *Recorder) (*Trace, []byte) {
		report, err := NewCluster(3, WithSeed(5), WithObserver(rec)).Run(obsWorkload(3))
		if err != nil {
			t.Fatal(err)
		}
		tr := ProfileOf(rec)
		return tr, profileBytes(tr, report.Elapsed)
	}
	full, faults := NewRecorder(), NewFaultRecorder()
	fullTr, fullOut := run(full)
	faultTr, faultOut := run(faults)
	if fullTr.Len() == 0 {
		t.Fatal("profile saw no events")
	}
	if fullTr.Len() != faultTr.Len() || !bytes.Equal(fullOut, faultOut) {
		t.Fatalf("profiles differ (%d vs %d events):\nfull recorder:\n%s\nfault recorder:\n%s",
			fullTr.Len(), faultTr.Len(), fullOut, faultOut)
	}
	if len(faults.Spans()) != faultTr.Len() || len(full.Spans()) <= fullTr.Len() {
		t.Fatalf("fault recorder holds %d spans for %d events, full recorder %d",
			len(faults.Spans()), faultTr.Len(), len(full.Spans()))
	}
}

// TestFaultRecorderKeepsOnlyFaults: on a chaos run — where the fabric, the
// injector and the recovery ladder all emit — a fault recorder holds the
// fault-level dsm spans and nothing else, and takes no gauge samples.
func TestFaultRecorderKeepsOnlyFaults(t *testing.T) {
	plan := &ChaosPlan{
		Seed: 4,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
	}
	cats := func(rec *Recorder) map[string]int {
		if _, err := NewCluster(3, WithSeed(9), WithChaos(plan), WithObserver(rec)).Run(chaosSharedCounterWorkload); err != nil {
			t.Fatal(err)
		}
		n := make(map[string]int)
		for _, s := range rec.Spans() {
			n[s.Cat]++
		}
		return n
	}
	full := NewRecorder()
	if n := cats(full); n["fabric"] == 0 || n["chaos"] == 0 || n["core"] == 0 || full.Samples() == 0 {
		t.Fatalf("the run does not exercise every layer: spans by category %v, %d samples", n, full.Samples())
	}
	rec := NewFaultRecorder()
	if n := cats(rec); len(n) != 1 || n["dsm"] == 0 {
		t.Fatalf("fault recorder spans by category = %v, want dsm only", n)
	}
	for _, s := range rec.Spans() {
		if s.Name != "fault.read" && s.Name != "fault.write" && s.Name != "invalidate" {
			t.Fatalf("fault recorder kept %s/%s", s.Cat, s.Name)
		}
	}
	if rec.Samples() != 0 {
		t.Fatalf("fault recorder took %d gauge samples", rec.Samples())
	}
	if ProfileOf(rec).Len() != ProfileOf(full).Len() {
		t.Fatalf("profile of the fault recorder has %d events, of the full one %d",
			ProfileOf(rec).Len(), ProfileOf(full).Len())
	}
}

// TestReportTLBPerNode: the per-node TLB breakdown sums to the aggregate.
func TestReportTLBPerNode(t *testing.T) {
	cluster := NewCluster(3, WithSeed(9))
	report, err := cluster.Run(obsWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.TLBPerNode) != 3 {
		t.Fatalf("TLBPerNode has %d entries, want 3", len(report.TLBPerNode))
	}
	var hits, misses, flushes uint64
	for _, s := range report.TLBPerNode {
		hits += s.Hits
		misses += s.Misses
		flushes += s.Flushes
	}
	if hits != report.TLB.Hits || misses != report.TLB.Misses || flushes != report.TLB.Flushes {
		t.Fatalf("per-node TLB stats don't sum to aggregate: %d/%d/%d vs %+v",
			hits, misses, flushes, report.TLB)
	}
}

// TestSamplePeriodConfigurable: the two sample periods a recorder can have —
// DefaultSamplePeriod on a full one, none on a fault recorder — differ in the
// samples taken and in nothing the simulation reports.
func TestSamplePeriodConfigurable(t *testing.T) {
	run := func(rec *Recorder) (Report, int) {
		cluster := NewCluster(2, WithSeed(13), WithObserver(rec))
		rep, err := cluster.Run(obsWorkload(2))
		if err != nil {
			t.Fatal(err)
		}
		return rep, rec.Samples()
	}
	repSampled, sampled := run(NewRecorder())
	repPlain, plain := run(NewFaultRecorder())
	if sampled == 0 || plain != 0 {
		t.Fatalf("samples: %d at the default period, %d with none", sampled, plain)
	}
	if !reflect.DeepEqual(repSampled, repPlain) {
		t.Fatalf("sampling changed the simulation:\n%+v\n%+v", repSampled, repPlain)
	}
}

func ExampleRecorder() {
	rec := NewRecorder()
	cluster := NewCluster(2, WithObserver(rec))
	_, err := cluster.Run(func(th *Thread) error {
		addr, err := th.Mmap(PageSize, ProtRead|ProtWrite, "x")
		if err != nil {
			return err
		}
		w, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			_, err := w.AddUint64(addr, 1)
			return err
		})
		if err != nil {
			return err
		}
		th.Join(w)
		return nil
	})
	if err != nil {
		panic(err)
	}
	h := rec.Histogram("fault.write")
	fmt.Println("write faults:", h.Count)
	// Output:
	// write faults: 1
}
