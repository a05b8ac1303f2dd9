// Package trace provides the execution-tracing facility of the LEGaTO
// runtime layer: spans over virtual time (task executions, checkpoints,
// migrations), named counters, and a Paraver-flavoured text export —
// the trace format of the BSC tool family that accompanies OmpSs.
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

// Tracer records spans and counters against an engine's clock. A Tracer is
// safe for concurrent use, so per-job traces can merge into a session
// trace while other jobs are still recording.
// Merge seals each merged tracer's spans as one exact-size chunk, so a
// merged span is copied once rather than on every regrowth of one slice.
type Tracer struct {
	mu       sync.Mutex
	eng      *sim.Engine
	chunks   [][]Span // sealed spans, in completion order
	spans    []Span   // spans closed since the last Merge
	open     map[int]*Span
	nextID   int
	counters map[string]float64
}

// New creates a tracer.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng, open: make(map[int]*Span), counters: make(map[string]float64)}
}

// Begin opens a span and returns its handle.
func (t *Tracer) Begin(name, category, resource string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.open[t.nextID] = &Span{
		Name: name, Category: category, Resource: resource, Start: t.eng.Now(),
	}
	return t.nextID
}

// End closes a span by handle; unknown handles are ignored.
func (t *Tracer) End(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = t.eng.Now()
	t.spans = append(t.spans, *s)
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

// Spans returns a copy of the closed spans in completion order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked()
}

// spansLocked copies every closed span into one exact-size slice, nil when
// there is none. Call with t.mu held.
func (t *Tracer) spansLocked() []Span {
	n := len(t.spans)
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
	return append(out, t.spans...)
}

// Add records an already-closed span with explicit timestamps — the path
// used when task records are replayed into a trace after the fact (a job
// worker observing taskrt completion records).
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
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

// Merge folds another tracer's closed spans and counters into t. Jobs
// record against their own virtual clock; merging preserves their
// job-relative timestamps, so merged spans are comparable per resource,
// not across jobs.
func (t *Tracer) Merge(other *Tracer) {
	if other == nil || other == t {
		return
	}
	other.mu.Lock()
	spans := other.spansLocked()
	counters := make(map[string]float64, len(other.counters))
	for k, v := range other.counters {
		counters[k] = v
	}
	other.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	// Seal t's own spans first: they closed before the merged ones.
	if len(t.spans) > 0 {
		t.chunks = append(t.chunks, t.spans)
		t.spans = nil
	}
	if len(spans) > 0 {
		t.chunks = append(t.chunks, spans)
	}
	for k, v := range counters {
		t.counters[k] += v
	}
}

// Series extracts the sampled values of a telemetry category as (seconds,
// value) points sorted by time — the shape internal/plot charts directly,
// e.g. the fleet draw-vs-time curve from "power" spans.
func (t *Tracer) Series(category string) (xs, ys []float64) {
	t.mu.Lock()
	spans := t.spansLocked()
	t.mu.Unlock()
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

// ByCategory returns total time per category.
func (t *Tracer) ByCategory() map[string]sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]sim.Time)
	for _, c := range t.chunks {
		for _, s := range c {
			out[s.Category] += s.Duration()
		}
	}
	for _, s := range t.spans {
		out[s.Category] += s.Duration()
	}
	return out
}

// ExportParaver renders the spans as Paraver-like state records:
// kind:resource:applTask:start:end:name.
func (t *Tracer) ExportParaver() string {
	return ParaverText(t.Spans(), t.Counters())
}

// ParaverText renders already-extracted spans and counters in the same
// Paraver-like text format as Tracer.ExportParaver — the path used when
// the data comes from an exported session dump rather than a live
// tracer.
func ParaverText(spans []Span, counters map[string]float64) string {
	var sb strings.Builder
	sb.WriteString("#Paraver (legato trace)\n")
	for i, s := range spans {
		fmt.Fprintf(&sb, "1:%s:%d:%d:%d:%s:%s\n",
			s.Resource, i+1, int64(s.Start), int64(s.End), s.Category, s.Name)
	}
	// Counters as event records.
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

// Summary renders per-category totals.
func (t *Tracer) Summary() string {
	cats := t.ByCategory()
	names := make([]string, 0, len(cats))
	for n := range cats {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %14s\n", "category", "total time")
	for _, n := range names {
		fmt.Fprintf(&sb, "%-20s %14v\n", n, cats[n])
	}
	return sb.String()
}
