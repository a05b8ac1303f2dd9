// Package trace holds the spans of a session: intervals over virtual time
// (task executions, checkpoints, hedges, failures, power samples) that the
// span fold derives from the lifecycle events, named counters, and a
// Paraver-flavoured text export — the trace format of the BSC tool family
// that accompanies OmpSs. It keeps no clock: every span arrives closed.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"legato/internal/sim"
)

// Span is one traced interval.
type Span struct {
	Name     string
	Category string
	Resource string // device/node the span ran on
	Start    sim.Time
	End      sim.Time
	// Value carries a sampled measurement for telemetry spans (e.g. the
	// fleet draw in watts for "power" samples); zero for plain intervals.
	Value float64
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer is a session's span store: the spans of every merged job, in
// merge order, and named counters. It is safe for concurrent use, so jobs
// can merge while others still run. Merge seals each job's spans as one
// exact-size chunk, so a merged span is copied once rather than on every
// regrowth of one slice.
type Tracer struct {
	mu       sync.Mutex
	chunks   [][]Span // merged spans, one chunk per Merge
	counters map[string]float64
}

// New creates an empty tracer.
func New() *Tracer {
	return &Tracer{counters: make(map[string]float64)}
}

// Count adds delta to a named counter.
func (t *Tracer) Count(name string, delta float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
}

// Counter returns a counter's value.
func (t *Tracer) Counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Spans returns a copy of the merged spans in merge order, nil when there
// is none.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Counters returns a copy of every named counter.
func (t *Tracer) Counters() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Merge appends a copy of one job's spans. Jobs record against their own
// virtual clock; merging preserves their job-relative timestamps, so
// merged spans are comparable per resource, not across jobs.
func (t *Tracer) Merge(spans []Span) {
	if len(spans) == 0 {
		return
	}
	chunk := make([]Span, len(spans))
	copy(chunk, spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chunks = append(t.chunks, chunk)
}

// Series extracts the sampled values of a telemetry category as (seconds,
// value) points sorted by time — the shape internal/plot charts directly,
// e.g. the fleet draw-vs-time curve from "power" spans.
func (t *Tracer) Series(category string) (xs, ys []float64) {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if s.Category != category {
			continue
		}
		xs = append(xs, sim.ToSeconds(s.Start))
		ys = append(ys, s.Value)
	}
	return xs, ys
}

// ParaverText renders spans as Paraver-like state records
// (1:resource:applTask:start:end:category:name) followed by the counters
// as event records (2:name:value), sorted by name.
func ParaverText(spans []Span, counters map[string]float64) string {
	var sb strings.Builder
	sb.WriteString("#Paraver (legato trace)\n")
	for i, s := range spans {
		fmt.Fprintf(&sb, "1:%s:%d:%d:%d:%s:%s\n",
			s.Resource, i+1, int64(s.Start), int64(s.End), s.Category, s.Name)
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "2:%s:%g\n", n, counters[n])
	}
	return sb.String()
}
