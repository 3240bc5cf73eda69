package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dex/benchmark/cpuprof"
	"dex/benchmark/probes"
	"dex/benchmark/spans"
	"dex/benchmark/workloads"
)

// options are the settings of one workload run in this process.
type options struct {
	workload string
	seed     int64
	seconds  float64 // how long to measure
	traced   bool
	quick    bool
	probes   bool   // run the layer probes in a traced run
	root     string // module root
}

// value is one reported metric: the median over its samples — for the
// host times of an iteration the fastest sample (metrics.go says why) —
// with minimum, median and maximum beside it. n is below eleven for every
// timing here, so no percentile is reported.
type value struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Source string  `json:"source,omitempty"`
}

// result is everything one workload run produced.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Seed        int64             `json:"seed"`
	Quick       bool              `json:"quick"`
	Iterations  int               `json:"iterations"`
	SetupPasses int               `json:"setup_passes"`
	Metrics     []value           `json:"metrics"`
	Fingerprint string            `json:"stats_fingerprint"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	Digests     map[string]string `json:"digests"`
	Spans       []spans.Span      `json:"spans"`
}

func (r *result) metric(name string) (value, bool) {
	for _, v := range r.Metrics {
		if v.Name == name {
			return v, true
		}
	}
	return value{}, false
}

// summarize reports the median of the samples with their extremes.
func summarize(name, unit, source string, samples ...float64) value {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v := value{Name: name, Unit: unit, Source: source, N: len(s)}
	if len(s) > 0 {
		v.Min, v.Max = s[0], s[len(s)-1]
		v.Median = s[len(s)/2]
		if len(s)%2 == 0 {
			v.Median = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
		v.Value = v.Median
	}
	return v
}

func median(samples []float64) float64 { return summarize("", "", "", samples...).Value }

// cost is the host cost of one iteration.
type cost struct {
	wall, cpu      float64 // seconds
	mallocs, bytes float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set. It is read from VmHWM,
// which starts afresh when the program is exec'd; getrusage's ru_maxrss,
// the fallback, starts from the resident set of the process that forked
// this one — under `go run` the go command's 21 MB, more than serve uses.
// Both are in KB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// session holds the state of one workload run: the span log, the checks made
// so far, and the simulated statistics every iteration must reproduce.
type session struct {
	opt      options
	log      *spans.Log
	expected map[string]string // output digests pinned in testdata, by run label
	res      result
	stats    map[string]float64 // simulated statistics of the first iteration
}

func (r *session) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// setUp is what happens between process start and the first timed
// iteration: schedule generation, golden and expected-digest load, and one
// discarded warm-up iteration.
func (r *session) setUp() (*workloads.Workload, error) {
	sp := r.log.Begin(0, "setup")
	defer r.log.End(sp)
	expected, err := expectedDigests(r.opt)
	if err != nil {
		return nil, err
	}
	r.expected = expected
	w, err := workloads.New(r.opt.workload, workloads.Config{Seed: r.opt.seed, Quick: r.opt.quick, Root: r.opt.root, Log: r.log, Span: sp})
	if err != nil {
		return nil, err
	}
	r.iterate(w, sp, "warm-up", false)
	return w, nil
}

// iterate runs one iteration under a span, measures its host cost, and
// checks its outputs: every run must succeed, match its pinned digest, and
// reproduce the first iteration's simulated statistics exactly.
func (r *session) iterate(w *workloads.Workload, parent int, name string, traced bool) (workloads.Iteration, cost) {
	runtime.GC() // every iteration starts from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	sp := r.log.Begin(parent, name)
	it := w.Iterate(sp, traced)
	r.log.End(sp)
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&after)
	c.mallocs = float64(after.Mallocs - before.Mallocs)
	c.bytes = float64(after.TotalAlloc - before.TotalAlloc)

	for _, run := range it.Runs {
		r.res.Attempted++
		key := w.Name + "/" + run.Label
		switch want, pinned := r.expected[key]; {
		case run.Err != nil:
			r.fail("%s: %v", key, run.Err)
		case pinned && want != run.Check:
			r.fail("%s: output digest %q, testdata has %q", key, run.Check, want)
		}
		r.res.Digests[key] = run.Check
	}
	stats, err := simulated(w, it)
	if err != nil {
		r.fail("%s: %v", w.Name, err)
		return it, c
	}
	fp := fingerprint(stats, it)
	if r.stats == nil {
		r.stats, r.res.Fingerprint = stats, fp
	} else if fp != r.res.Fingerprint {
		r.fail("%s: simulated statistics differ between iterations (fingerprint %s, first was %s)", w.Name, fp, r.res.Fingerprint)
	}
	return it, c
}

// measure runs the workload and fills in the result.
func measure(opt options) (*result, error) {
	r := &session{opt: opt, log: spans.NewLog(opt.workload)}
	r.res = result{Workload: opt.workload, Traced: opt.traced, Seed: opt.seed, Quick: opt.quick, Digests: map[string]string{}}
	var err error
	if opt.traced {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	r.res.Spans = r.log.Spans()
	return &r.res, err
}

// untraced measures the end-to-end metrics: recorder off, profiler off.
func (r *session) untraced() error {
	// Set up again as long as the passes so far took less than a third of
	// the measuring time, three times at most, and report the median pass.
	var setups []float64
	var w *workloads.Workload
	for spent := 0.0; len(setups) == 0 || (len(setups) < 3 && spent < r.opt.seconds/3); {
		t0 := time.Now()
		var err error
		if w, err = r.setUp(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	r.res.SetupPasses = len(setups)

	var walls, cpus, mallocs, mbs []float64
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds() < r.opt.seconds; {
		_, c := r.iterate(w, 0, "iteration", false)
		walls = append(walls, c.wall)
		cpus = append(cpus, c.cpu)
		mallocs = append(mallocs, c.mallocs)
		mbs = append(mbs, c.bytes/1e6)
	}
	r.res.Iterations = len(walls)

	host := map[string][]float64{
		"wall_s": walls, "cpu_s": cpus, "host_allocs": mallocs, "host_alloc_mb": mbs,
		"host_peak_mb": {peakRSSMB()}, "setup_s": setups,
	}
	for _, m := range endToEnd {
		if !m.appliesTo(r.opt.workload) {
			continue
		}
		samples, ok := host[m.name]
		if !ok {
			samples = []float64{r.stats[m.name]}
		}
		v := summarize(m.name, m.unit, "", samples...)
		if m.fastest {
			v.Value = v.Min
		}
		r.res.Metrics = append(r.res.Metrics, v)
	}
	return nil
}

// profileCPUSeconds is how much CPU time the profiled pass covers at
// least: at the profiler's 100 Hz, six hundred samples, which puts a host
// share of 0.4 within ±0.02. A thousand would cost the heaviest workload a
// third iteration of six seconds.
const profileCPUSeconds = 6

// traced measures the per-layer metrics. It runs the workload three ways:
// untraced and with a recorder in turn (the ratio of the two is the
// recorder's overhead), then with recorder and CPU profiler together for
// the host attribution. Exact counts and simulated times come from the
// reports and the recorder of the last recorded iteration.
func (r *session) traced() error {
	w, err := r.setUp()
	if err != nil {
		return err
	}
	r.res.SetupPasses = 1

	var baseWall, baseCPU, recordedWall []float64
	var last workloads.Iteration
	for start := time.Now(); len(baseWall) == 0 || time.Since(start).Seconds() < r.opt.seconds/2; {
		_, c := r.iterate(w, 0, "iteration untraced", false)
		baseWall, baseCPU = append(baseWall, c.wall), append(baseCPU, c.cpu)
		last, c = r.iterate(w, 0, "iteration recorded", true)
		recordedWall = append(recordedWall, c.wall)
	}

	target := float64(profileCPUSeconds)
	if r.opt.quick {
		target = 0.3
	}
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	profiled := 0
	for cpu0 := cpuSeconds(); profiled == 0 || cpuSeconds()-cpu0 < target; profiled++ {
		r.iterate(w, 0, "iteration profiled", true)
	}
	pprof.StopCPUProfile()
	r.res.Iterations = len(baseWall) + len(recordedWall) + profiled
	samples, err := cpuprof.Parse(profile.Bytes())
	if err != nil {
		return err
	}
	byLayer, total := cpuprof.Attribute(samples)
	if total == 0 {
		return fmt.Errorf("cpu profile of %d iteration(s) holds no samples", profiled)
	}

	m := map[string]float64{}
	for name, v := range r.stats {
		m[name] = v
	}
	for layer, ns := range byLayer {
		m[hostShareName(layer)] = float64(ns) / float64(total)
	}
	per := func(ns int64, count float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / (count * float64(profiled))
	}
	m["sim.host_ns_per_event"] = per(byLayer["sim"]+byLayer["runtime.sched"], m["sim.events"])
	m["fabric.host_ns_per_msg"] = per(byLayer["fabric"], m["fabric.small_msgs"]+m["fabric.page_msgs"])
	m["dsm.host_us_per_fault"] = per(byLayer["dsm"], m["dsm.read_faults"]+m["dsm.write_faults"]) / 1e3
	m["serve.host_us_per_req"] = per(byLayer["serve"], m["serve.served"]) / 1e3

	// Simulated times from the recorder's histograms, and what the record
	// costs to keep and to export.
	hist := map[string]string{
		"fabric.virt_msg_small_us": "msg.small", "fabric.virt_msg_page_us": "msg.page",
		"dsm.virt_fault_read_us": "fault.read", "dsm.virt_fault_write_us": "fault.write",
		"core.virt_migrate_fwd_us": "migrate.forward",
	}
	for name, h := range hist {
		var sum time.Duration
		var count uint64
		for _, run := range last.Runs {
			if hg := run.Rec.Histogram(h); hg != nil {
				sum += hg.Sum
				count += hg.Count
			}
		}
		m[name] = 0
		if count > 0 {
			m[name] = us(sum) / float64(count)
		}
	}
	var traceBytes countingWriter
	for _, run := range last.Runs {
		if run.Rec == nil {
			continue
		}
		m["obs.spans"] += float64(len(run.Rec.Spans()))
		sp := r.log.Begin(0, "WriteTrace "+run.Label)
		err := run.Rec.WriteTrace(&traceBytes)
		m["obs.export_s"] += r.log.End(sp).Seconds()
		if err != nil {
			return fmt.Errorf("WriteTrace %s: %w", run.Label, err)
		}
	}
	m["obs.trace_mb"] = float64(traceBytes) / 1e6

	m["obs.overhead_ratio"] = median(recordedWall) / median(baseWall)
	m["exper.cell_parallelism"] = median(baseCPU) / median(baseWall)
	m["load.schedule_s"] = w.ScheduleTime.Seconds()

	if r.opt.probes {
		sp := r.log.Begin(0, "probes")
		costs, err := probes.Run(r.opt.quick, r.log, sp)
		r.log.End(sp)
		if err != nil {
			return err
		}
		for name, v := range costs {
			m[name] = v
		}
	}

	// Every per-layer metric is reported on every workload; one that does
	// not apply (no recorder on suite, no chaos outside serve_chaos) is 0.
	for _, lm := range perLayer {
		r.res.Metrics = append(r.res.Metrics, summarize(lm.name, lm.unit, lm.source, m[lm.name]))
	}
	for _, em := range endToEnd {
		if !em.forDriver() {
			r.res.Metrics = append(r.res.Metrics, summarize(em.name, em.unit, "", m[em.name]))
		}
	}
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
