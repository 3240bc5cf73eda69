// Command dextrace analyzes Perfetto trace-event JSON files produced by
// dexrun -trace (or any dex.Recorder.WriteTrace output): it reports the
// top-N slowest spans, latency percentiles per fault kind, and per-node
// activity timelines.
//
// Usage:
//
//	dextrace trace.json                  summary: percentiles + slowest spans
//	dextrace -top 20 trace.json          widen the slowest-span table
//	dextrace -timeline 1 trace.json      chronological span listing for node 1
//	dextrace -validate trace.json        structure check for CI: parse, per-track
//	                                     span monotonicity, counter time order
//
// The summary also reports the scheduler telemetry counters (windows,
// serialized windows, lane dispatches) when the trace carries sched.* gauge
// samples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dextrace:", err)
		os.Exit(1)
	}
}

// traceEvent mirrors one entry of the trace-event JSON array. ts and dur are
// microseconds (fractional part is nanoseconds), per the trace-event spec.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// span is a parsed complete ("X") event with durations back in ns.
type span struct {
	name  string
	cat   string
	node  int
	tid   int
	start time.Duration
	dur   time.Duration
	args  map[string]any
}

func usecToDur(v float64) time.Duration {
	return time.Duration(math.Round(v * 1000))
}

func load(path string) (*traceFile, []span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parse(path, data)
}

// parse decodes a trace file's bytes; path names the file in errors.
func parse(path string, data []byte) (*traceFile, []span, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	var spans []span
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Name == "" {
				return nil, nil, fmt.Errorf("%s: event %d: complete event with empty name", path, i)
			}
			if ev.Dur < 0 {
				return nil, nil, fmt.Errorf("%s: event %d (%s): negative duration", path, i, ev.Name)
			}
			spans = append(spans, span{
				name:  ev.Name,
				cat:   ev.Cat,
				node:  ev.Pid,
				tid:   ev.Tid,
				start: usecToDur(ev.Ts),
				dur:   usecToDur(ev.Dur),
				args:  ev.Args,
			})
		case "C", "M":
			// counters and metadata: structurally fine, not spans
		case "":
			return nil, nil, fmt.Errorf("%s: event %d: missing ph", path, i)
		}
	}
	return &tf, spans, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("dextrace", flag.ContinueOnError)
	var (
		topN     = fs.Int("top", 10, "how many slowest spans to list")
		timeline = fs.Int("timeline", -1, "print the chronological span timeline for this node")
		limit    = fs.Int("limit", 50, "max rows in the timeline listing")
		validate = fs.Bool("validate", false, "only check the file parses and is well-formed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dextrace [flags] trace.json")
	}
	path := fs.Arg(0)
	tf, spans, err := load(path)
	if err != nil {
		return err
	}
	if *validate {
		counters := 0
		for _, ev := range tf.TraceEvents {
			if ev.Ph == "C" {
				counters++
			}
		}
		if err := validateOrder(path, tf); err != nil {
			return err
		}
		fmt.Printf("%s: ok — %d events (%d spans, %d counter samples)\n",
			path, len(tf.TraceEvents), len(spans), counters)
		return nil
	}
	if *timeline >= 0 {
		return printTimeline(spans, *timeline, *limit)
	}
	printSummary(spans)
	printSched(tf)
	printPercentiles(spans)
	printSlowest(spans, *topN)
	return nil
}

// validateOrder checks the deterministic-merge invariants of a recorder-
// written trace: within each (pid, tid) track the complete events appear in
// non-decreasing start order (the writer emits spans globally sorted by
// start, so every per-lane track must be monotonic), and each counter
// series is in non-decreasing time order. A violation names the offending
// event — it means the merge was not deterministic, or the file was not
// produced by the recorder.
func validateOrder(path string, tf *traceFile) error {
	type trackKey struct{ pid, tid int }
	lastSpan := map[trackKey]float64{}
	lastCounter := map[string]float64{}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			k := trackKey{ev.Pid, ev.Tid}
			if prev, ok := lastSpan[k]; ok && ev.Ts < prev {
				return fmt.Errorf("%s: event %d: span %q (pid %d tid %d) at ts=%v precedes its track predecessor at ts=%v: merged span order is not monotonic",
					path, i, ev.Name, ev.Pid, ev.Tid, ev.Ts, prev)
			}
			lastSpan[k] = ev.Ts
		case "C":
			if prev, ok := lastCounter[ev.Name]; ok && ev.Ts < prev {
				return fmt.Errorf("%s: event %d: counter %q at ts=%v precedes its previous sample at ts=%v: sample series is not in time order",
					path, i, ev.Name, ev.Ts, prev)
			}
			lastCounter[ev.Name] = ev.Ts
		}
	}
	return nil
}

// printSched reports the scheduler telemetry gauges (recorded as sched.*
// counter samples) at their final sampled values.
func printSched(tf *traceFile) {
	last := map[string]float64{}
	var names []string
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "C" || !strings.HasPrefix(ev.Name, "sched.") {
			continue
		}
		v, ok := ev.Args["value"].(float64)
		if !ok {
			continue
		}
		if _, seen := last[ev.Name]; !seen {
			names = append(names, ev.Name)
		}
		last[ev.Name] = v
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("scheduler telemetry (final sampled values):")
	for _, n := range names {
		fmt.Printf("%-28s %12.0f\n", n, last[n])
	}
	fmt.Println()
}

// printSummary reports per-category and per-node span counts and total
// recorded busy time.
func printSummary(spans []span) {
	type agg struct {
		count int
		total time.Duration
	}
	byName := map[string]*agg{}
	nodes := map[int]*agg{}
	var names []string
	for _, s := range spans {
		key := s.cat + "/" + s.name
		a := byName[key]
		if a == nil {
			a = &agg{}
			byName[key] = a
			names = append(names, key)
		}
		a.count++
		a.total += s.dur
		n := nodes[s.node]
		if n == nil {
			n = &agg{}
			nodes[s.node] = n
		}
		n.count++
		n.total += s.dur
	}
	sort.Strings(names)
	fmt.Printf("%-28s %8s %14s\n", "span", "count", "total time")
	for _, k := range names {
		a := byName[k]
		fmt.Printf("%-28s %8d %14v\n", k, a.count, a.total)
	}
	var ids []int
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Println()
	for _, id := range ids {
		fmt.Printf("node %-3d %8d spans %14v recorded\n", id, nodes[id].count, nodes[id].total)
	}
	fmt.Println()
}

// printPercentiles reports exact p50/p95/p99 latency per fault kind (and the
// other latency-bearing span families), computed from the recorded spans
// themselves rather than histogram buckets.
func printPercentiles(spans []span) {
	families := []string{
		"fault.read", "fault.write", "fault.request", "fault.transfer",
		"origin.serve", "migrate.forward", "migrate.backward", "msg.small", "msg.page",
		// Recovery-lifecycle and scheduler-era span kinds.
		"retransmit", "dedup.reserve", "dedup.reack", "checkpoint",
		"lease.suspect", "node.crash", "node.dead", "thread.restart", "revoke.apply",
		"hm.redirect", "hm.failover", "hm.rehome", "hm.pull",
		// Sharded-directory span kinds (DistributedManager): lookup
		// resolution, forwarding-chain bounces, path-compression hint
		// application, and crashed-shard slice rebuilds.
		"dist.lookup", "dist.forward", "dist.compress", "dist.rebuild",
		// Serving-layer span kinds (internal/serve): req.serve carries the
		// full arrival-to-completion request latency.
		"req.serve", "req.shed", "req.retry",
	}
	byName := map[string][]time.Duration{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s.dur)
	}
	fmt.Printf("%-20s %8s %12s %12s %12s %12s\n", "latency", "count", "p50", "p95", "p99", "max")
	for _, name := range families {
		ds := byName[name]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		fmt.Printf("%-20s %8d %12v %12v %12v %12v\n", name, len(ds),
			quantile(ds, 0.50), quantile(ds, 0.95), quantile(ds, 0.99), ds[len(ds)-1])
	}
	fmt.Println()
}

// quantile returns the q-th order statistic (nearest-rank) of sorted ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(ds) {
		rank = len(ds)
	}
	return ds[rank-1]
}

// printSlowest lists the n slowest spans with their arguments.
func printSlowest(spans []span, n int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].dur > spans[order[b]].dur })
	if n > len(order) {
		n = len(order)
	}
	fmt.Printf("top %d slowest spans:\n", n)
	fmt.Printf("%-20s %6s %6s %14s %12s  %s\n", "span", "node", "tid", "start", "dur", "args")
	for _, i := range order[:n] {
		s := spans[i]
		fmt.Printf("%-20s %6d %6d %14v %12v  %s\n", s.name, s.node, s.tid, s.start, s.dur, formatArgs(s.args))
	}
}

// printTimeline lists node's spans chronologically.
func printTimeline(spans []span, node, limit int) error {
	var rows []span
	for _, s := range spans {
		if s.node == node {
			rows = append(rows, s)
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no spans recorded for node %d", node)
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].start < rows[b].start })
	fmt.Printf("node %d timeline (%d spans):\n", node, len(rows))
	fmt.Printf("%14s %12s %6s %-20s %s\n", "start", "dur", "tid", "span", "args")
	shown := 0
	for _, s := range rows {
		if shown >= limit {
			fmt.Printf("... %d more (raise -limit)\n", len(rows)-shown)
			break
		}
		fmt.Printf("%14v %12v %6d %-20s %s\n", s.start, s.dur, s.tid, s.name, formatArgs(s.args))
		shown++
	}
	return nil
}

// formatArgs renders span args as stable "k=v" pairs in key order.
func formatArgs(args map[string]any) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", k, args[k])
	}
	return b.String()
}
