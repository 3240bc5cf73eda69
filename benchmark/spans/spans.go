// Package spans is the benchmark's own in-memory span log: one span
// around every call the benchmark makes into a layer of the system
// (load.Schedule, serve.Run, Experiment.Run, App.Run, Cluster.Run,
// WriteTrace, each probe). Spans record host time; they are kept in memory
// and written out once, when the benchmark ends. Spans inside the program
// are the recorder's job (internal/obs), not this package's.
package spans

import (
	"sync"
	"time"
)

// Span is one completed host-time interval. Parent is the ID of the span
// that caused it, 0 for a root. Times are nanoseconds since the log was
// created.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// Log collects spans. It is safe for concurrent use: the suite workload
// runs its experiments on several goroutines. A nil *Log records nothing.
type Log struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

// NewLog returns an empty log whose spans carry the given workload id.
func NewLog(workload string) *Log {
	return &Log{workload: workload, t0: time.Now()}
}

// Begin opens a span under parent (0 for a root) and returns its ID, to be
// passed to End and to Begin as the parent of child spans.
func (l *Log) Begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Workload: l.workload, Name: name, StartNs: now})
	return id
}

// End closes the span and returns its duration.
func (l *Log) End(id int) time.Duration {
	if l == nil || id == 0 {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// Spans returns a copy of the recorded spans in Begin order.
func (l *Log) Spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}
