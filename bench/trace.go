package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRec is one recorded span: a call into a layer (or one HTTP op of
// the replay), with the span that caused it and the op both belong to.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`     // ordinal of the op in the traced run
	Name   string `json:"name"`   // "<package>.<call>"; layer = package name
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the call did, in the unit its layer metric divides by
	// (tuples, bytes, grammar nodes, states); 0 when the call has none.
	N int `json:"n,omitempty"`
	// Coverage marks a span of the coverage script: not work of the
	// workload's own ops.
	Coverage bool `json:"coverage,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
	// coverage is set while the coverage script runs (no other goroutine
	// records then).
	coverage bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of parent within op and returns its id.
func (t *tracer) begin(parent, op int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0)), Coverage: t.coverage})
	return len(t.spans)
}

// end closes the span; n is the work count N.
func (t *tracer) end(id, n int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].N = now, n
	t.mu.Unlock()
}

// span times f as a child of parent within op and returns its id; f
// returns the work count N.
func (t *tracer) span(parent, op int, name string, f func() int) int {
	id := t.begin(parent, op, name)
	t.end(id, f())
	return id
}

// duration of a closed span.
func (t *tracer) duration(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End - t.spans[id-1].Start
}

// record adds a span measured elsewhere (the HTTP client's clock).
func (t *tracer) record(op int, name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Op: op, Name: name, Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// spanTotal is the sum over every span of one name.
type spanTotal struct {
	calls int
	ns    int64
	n     int
}

// nextOp is the first op ordinal no span has used yet.
func (t *tracer) nextOp() int {
	next := 1
	for _, s := range t.spans {
		next = max(next, s.Op+1)
	}
	return next
}

// totalsFrom sums the spans recorded after the first `first` ones.
func (t *tracer) totalsFrom(first int) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range t.spans[first:] {
		tt := out[s.Name]
		tt.calls++
		tt.ns += s.End - s.Start
		tt.n += s.N
		out[s.Name] = tt
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(map[string]any{"unit": "ns since the traced run began", "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// perCall is the mean duration of a call in µs; perN the duration per
// unit of work, in the time unit given in nanoseconds (1 for ns, 1e3
// for µs, 1e6 for ms). Both are 0 when nothing was recorded.
func (s spanTotal) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / 1e3 / float64(s.calls)
}

func (s spanTotal) perN(unitNs float64) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / unitNs / float64(s.n)
}
