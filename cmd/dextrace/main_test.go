package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleTrace = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"node 0"}},
{"name":"fault.read","cat":"dsm","ph":"X","ts":2.000,"dur":8.000,"pid":0,"tid":3,"args":{"addr":"0x1000"}},
{"name":"fault.read","cat":"dsm","ph":"X","ts":12.000,"dur":20.500,"pid":0,"tid":4},
{"name":"fault.write","cat":"dsm","ph":"X","ts":40.000,"dur":15.000,"pid":1,"tid":3},
{"name":"msg.small","cat":"fabric","ph":"X","ts":1.000,"dur":5.300,"pid":1,"tid":1000,"args":{"bytes":"64"}},
{"name":"resident_pages","ph":"C","ts":100.000,"pid":0,"args":{"value":42}}
]}
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	path := writeSample(t)
	tf, spans, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 6 {
		t.Fatalf("got %d events", len(tf.TraceEvents))
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Fixed-point µs fields convert back to exact ns.
	if spans[0].start != 2*time.Microsecond || spans[0].dur != 8*time.Microsecond {
		t.Fatalf("span 0 timing: start=%v dur=%v", spans[0].start, spans[0].dur)
	}
	if spans[1].dur != 20500*time.Nanosecond {
		t.Fatalf("span 1 dur: %v", spans[1].dur)
	}
}

func TestRunModes(t *testing.T) {
	path := writeSample(t)
	for _, args := range [][]string{
		{"-validate", path},
		{path},
		{"-top", "2", path},
		{"-timeline", "0", path},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeSample(t)
	if err := run([]string{}); err == nil {
		t.Error("no file accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if err := run([]string{"-validate", bad}); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := run([]string{"-timeline", "9", path}); err == nil {
		t.Error("timeline for absent node accepted")
	}
}

// TestServeFamiliesReported checks the serving-layer span kinds are part
// of the percentile families: a trace holding req.* spans must produce
// latency rows for them.
func TestServeFamiliesReported(t *testing.T) {
	serveTrace := `{"displayTimeUnit":"ns","traceEvents":[
{"name":"req.serve","cat":"serve","ph":"X","ts":5.000,"dur":40.000,"pid":1,"tid":7,"args":{"tenant":"0"}},
{"name":"req.serve","cat":"serve","ph":"X","ts":9.000,"dur":60.000,"pid":1,"tid":7},
{"name":"req.shed","cat":"serve","ph":"X","ts":11.000,"dur":0.000,"pid":0,"tid":3,"args":{"why":"429"}},
{"name":"req.retry","cat":"serve","ph":"X","ts":20.000,"dur":1.000,"pid":0,"tid":3}
]}
`
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, []byte(serveTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{path})
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, fam := range []string{"req.serve", "req.shed", "req.retry"} {
		if !strings.Contains(string(out), fam) {
			t.Fatalf("percentile output missing %s family:\n%s", fam, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(ds, 0.5); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(ds, 0.95); got != 10 {
		t.Errorf("p95 = %v", got)
	}
	if got := quantile(ds, 1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// TestDistFamiliesReported checks the sharded-directory span kinds are part
// of the percentile families and survive -validate: a trace holding dist.*
// spans must produce latency rows for them.
func TestDistFamiliesReported(t *testing.T) {
	distTrace := `{"displayTimeUnit":"ns","traceEvents":[
{"name":"dist.lookup","cat":"dsm","ph":"X","ts":2.000,"dur":0.000,"pid":1,"tid":-1,"args":{"vpn":"0x40000"}},
{"name":"dist.forward","cat":"dsm","ph":"X","ts":5.000,"dur":0.000,"pid":2,"tid":-1,"args":{"home":"1"}},
{"name":"dist.compress","cat":"dsm","ph":"X","ts":9.000,"dur":0.000,"pid":0,"tid":-1},
{"name":"dist.rebuild","cat":"dsm","ph":"X","ts":20.000,"dur":3.000,"pid":0,"tid":-1,"args":{"from":"2"}}
]}
`
	path := filepath.Join(t.TempDir(), "dist.json")
	if err := os.WriteFile(path, []byte(distTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err != nil {
		t.Fatalf("-validate rejected dist.* spans: %v", err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{path})
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, fam := range []string{"dist.lookup", "dist.forward", "dist.compress", "dist.rebuild"} {
		if !strings.Contains(string(out), fam) {
			t.Fatalf("percentile output missing %s family:\n%s", fam, out)
		}
	}
}

// FuzzTraceLoad holds the loader and the -validate order check to their
// contract on any bytes: an error or a trace, never a panic, and one named
// span per complete event of a loaded trace.
func FuzzTraceLoad(f *testing.F) {
	f.Add([]byte(sampleTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, spans, err := parse("fuzz.json", data)
		if err != nil {
			return
		}
		complete := 0
		for _, ev := range tf.TraceEvents {
			if ev.Ph == "X" {
				complete++
			}
		}
		if len(spans) != complete {
			t.Fatalf("%d spans from %d complete events", len(spans), complete)
		}
		for i, s := range spans {
			if s.name == "" {
				t.Fatalf("span %d has no name", i)
			}
		}
		_ = validateOrder("fuzz.json", tf)
	})
}
