package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// This file renders a Recorder as Chrome/Perfetto trace-event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// spans become complete ("ph":"X") events, gauge samples become counter
// ("ph":"C") events, and each simulated node gets a process_name metadata
// record so per-node timelines group naturally. Everything is written with
// integer arithmetic and a fixed field order, so the bytes are a pure
// function of the recorded data — same seed, same file.

// usec renders a duration as microseconds with nanosecond precision using
// integer math only (trace-event ts/dur are in microseconds).
func usec(d time.Duration) string {
	ns := int64(d)
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// jsonString escapes s as a JSON string literal. Recorder names and args are
// plain ASCII identifiers; strconv.Quote covers them (and escapes anything
// unusual safely).
func jsonString(s string) string { return strconv.Quote(s) }

// WriteTrace writes the full trace-event JSON document.
func (r *Recorder) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		bw.WriteString(line)
	}

	if r != nil {
		spans := r.Spans()

		// Metadata: one process_name per node that appears in the record.
		for _, pid := range r.pidsInUse(spans) {
			emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"node %d"}}`, pid, pid))
		}

		// Spans, sorted by (start, merged order) for a readable file; the
		// sort is stable so equal timestamps keep the deterministic
		// (record time, lane, sequence) merge order.
		order := make([]int, len(spans))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return spans[order[a]].Start < spans[order[b]].Start
		})
		for _, i := range order {
			s := &spans[i]
			line := fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d`,
				jsonString(s.Name), jsonString(s.Cat), usec(s.Start), usec(s.Dur), s.Node, s.Task)
			if len(s.Args) > 0 {
				line += `,"args":{`
				for j, a := range s.Args {
					if j > 0 {
						line += ","
					}
					line += jsonString(a.Key) + ":" + jsonString(a.Val)
				}
				line += "}"
			}
			line += "}"
			emit(line)
		}

		// Gauge samples as counter events, already in time order.
		for _, smp := range r.samples {
			g := r.gauges[smp.Gauge]
			pid := g.node
			if pid < 0 {
				pid = 0
			}
			emit(fmt.Sprintf(`{"name":%s,"ph":"C","ts":%s,"pid":%d,"args":{"value":%s}}`,
				jsonString(g.name), usec(smp.At), pid,
				strconv.FormatFloat(smp.Val, 'g', -1, 64)))
		}
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteTraceFile writes the trace-event JSON document to a new file at path
// (the tools' -trace flag).
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pidsInUse returns the sorted set of node ids appearing in spans or
// node-scoped gauges.
func (r *Recorder) pidsInUse(spans []Span) []int {
	seen := make(map[int]bool)
	for i := range spans {
		seen[spans[i].Node] = true
	}
	for _, g := range r.gauges {
		if g.node >= 0 {
			seen[g.node] = true
		} else {
			seen[0] = true
		}
	}
	out := make([]int, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// WriteMetrics writes a human-readable summary of every histogram: count,
// min, mean, p50/p95/p99 and max, in name order.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-24s %10s %12s %12s %12s %12s %12s %12s\n",
		"histogram", "count", "min", "mean", "p50", "p95", "p99", "max")
	for _, h := range r.Histograms() {
		fmt.Fprintf(bw, "%-24s %10d %12v %12v %12v %12v %12v %12v\n",
			h.Name, h.Count, h.Min, h.Mean(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
	if r != nil && len(r.samples) > 0 {
		fmt.Fprintf(bw, "samples: %d gauge observations over %d series\n", len(r.samples), len(r.gauges))
	}
	return bw.Flush()
}
