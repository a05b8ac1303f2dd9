package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"legato/internal/sim"
	"legato/internal/trace"
)

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// promEscaper escapes label values per the exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promName normalizes a registry metric name into a legal Prometheus
// metric name: the "legato_" namespace prefix, with every character
// outside [a-zA-Z0-9_:] mapped to '_' (registry metrics use dashes:
// "tasks-completed" → "legato_tasks_completed").
func promName(metric string) string {
	var sb strings.Builder
	sb.WriteString("legato_")
	for _, r := range metric {
		switch {
		// Digits are legal anywhere here because of the namespace prefix.
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// PrometheusText renders a monitor.Registry snapshot (scope → metric →
// value) in the Prometheus text exposition format. Registry scopes
// follow the "kind/name" convention ("job/ingest", "device/recs0/ms3");
// the kind becomes the scope label and the remainder the name label.
// Output is fully sorted (metric, then labels), so two snapshots of the
// same state render byte-identically.
func PrometheusText(snap map[string]map[string]float64) string {
	type sample struct {
		labels string
		value  float64
	}
	families := make(map[string][]sample)
	for scope, metrics := range snap {
		kind, name := scope, ""
		if i := strings.IndexByte(scope, '/'); i >= 0 {
			kind, name = scope[:i], scope[i+1:]
		}
		labels := fmt.Sprintf(`scope=%q`, promEscaper.Replace(kind))
		if name != "" {
			labels += fmt.Sprintf(`,name=%q`, promEscaper.Replace(name))
		}
		for metric, v := range metrics {
			fam := promName(metric)
			families[fam] = append(families[fam], sample{labels: labels, value: v})
		}
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, fam := range names {
		samples := families[fam]
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		fmt.Fprintf(&sb, "# TYPE %s gauge\n", fam)
		for _, s := range samples {
			fmt.Fprintf(&sb, "%s{%s} %s\n", fam, s.labels,
				strconv.FormatFloat(s.value, 'g', -1, 64))
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

// chromeEvent is one entry of the trace_event JSON array (the "JSON
// object format" chrome://tracing and Perfetto load directly).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent      `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	OtherData       map[string]float64 `json:"otherData,omitempty"`
}

// usec converts virtual time to trace_event microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// ChromeTrace renders tracer spans (and optional counters) as Chrome
// trace_event JSON. Each span resource becomes a named thread of pid 1
// (sorted for stable tids); intervals become complete ("X") events,
// zero-width markers become instants ("i"), and value-carrying samples
// (e.g. the "power" fleet-draw series) become counter ("C") tracks so
// the draw-vs-time curve renders as a graph. Tracer counters land in
// otherData.
func ChromeTrace(spans []trace.Span, counters map[string]float64) ([]byte, error) {
	resources := make(map[string]int)
	for _, s := range spans {
		resources[s.Resource] = 0
	}
	names := make([]string, 0, len(resources))
	for r := range resources {
		names = append(names, r)
	}
	sort.Strings(names)
	events := make([]chromeEvent, 0, len(spans)+len(names)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "legato session"},
	})
	for i, r := range names {
		resources[r] = i + 1
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": r},
		})
	}
	for _, s := range spans {
		tid := resources[s.Resource]
		switch {
		case s.Start == s.End && s.Value != 0:
			// Telemetry sample → counter track named by the span.
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "C", Ts: usec(s.Start),
				Pid: 1, Tid: tid,
				Args: map[string]any{s.Category: s.Value},
			})
		case s.Start == s.End:
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "i", Ts: usec(s.Start),
				Pid: 1, Tid: tid, Scope: "t",
			})
		default:
			ev := chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "X", Ts: usec(s.Start),
				Dur: usec(s.End - s.Start), Pid: 1, Tid: tid,
			}
			if s.Value != 0 {
				ev.Args = map[string]any{"value": s.Value}
			}
			events = append(events, ev)
		}
	}
	out := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	if len(counters) > 0 {
		out.OtherData = counters
	}
	return json.MarshalIndent(out, "", " ")
}

// ---------------------------------------------------------------------------
// Span fold: lifecycle events → trace spans
// ---------------------------------------------------------------------------

// SpanFold folds one job's lifecycle events into trace spans: "queue"
// markers, committed "task" executions, "failure", "checkpoint", "hedge"
// and "deadline" spans, and "power" samples of the fleet draw at every
// task and hedge boundary. Timelines parses these names back, so the span
// vocabulary lives in this package alone. Interval starts come from
// earlier events: a task's last TaskStarted, a replica's HedgeLaunched, a
// checkpoint's CheckpointBegin.
type SpanFold struct {
	tr        *trace.Tracer
	draw      func() float64      // fleet draw sampler (nil: no power samples)
	started   map[string]sim.Time // launch instant of each running task
	hedged    map[string]sim.Time // launch instant of each task's racing replica
	ckptAt    sim.Time            // capture instant of the committing checkpoint
	ckptBytes float64
}

// NewSpanFold starts a fold recording into tr; draw, when non-nil, is
// sampled for the power series.
func NewSpanFold(tr *trace.Tracer, draw func() float64) *SpanFold {
	return &SpanFold{tr: tr, draw: draw,
		started: make(map[string]sim.Time), hedged: make(map[string]sim.Time)}
}

// Apply folds one event.
func (f *SpanFold) Apply(e Event) {
	switch e.Kind {
	case TaskQueued:
		f.mark(e.Task, "queue", e.Task, e.At)
	case TaskStarted:
		f.started[e.Task] = e.At
		f.sample(e.At)
	case TaskCompleted:
		f.tr.Add(trace.Span{Name: e.Task, Category: "task", Resource: e.Device,
			Start: f.started[e.Task], End: e.At})
		delete(f.started, e.Task)
		f.sample(e.At)
	case TaskShed:
		f.mark(e.Task+"#shed", "deadline", e.Task, e.At)
	case TaskRetried:
		f.mark(fmt.Sprintf("%s#retry%d(%s)", e.Task, int(e.Value), e.Detail), "failure", e.Task, e.At)
	case TaskFailed:
		f.mark(fmt.Sprintf("%s#failed(%s)", e.Task, e.Detail), "failure", e.Task, e.At)
	case DeviceLost:
		f.mark(fmt.Sprintf("crash(%s) %s", e.Device, e.Detail), "failure", e.Device, e.At)
	case CheckpointBegin:
		f.ckptAt, f.ckptBytes = e.At, e.Value
	case CheckpointCommit:
		f.tr.Add(trace.Span{
			Name:     fmt.Sprintf("ckpt tasks=%d bytes=%d", int(e.Value), int64(f.ckptBytes)),
			Category: "checkpoint", Resource: e.Job, Start: f.ckptAt, End: e.At,
		})
	case HedgeArmed:
		elapsed := e.At - f.started[e.Task]
		f.mark(fmt.Sprintf("%s straggling on %s (%v elapsed, %.2fx expected)", e.Task, e.Device, elapsed, e.Value),
			"hedge", e.Device, e.At)
	case HedgeLaunched:
		f.hedged[e.Task] = e.At
		from := strings.TrimPrefix(e.Detail, "from ")
		f.mark(fmt.Sprintf("%s hedge %s->%s", e.Task, from, e.Device), "hedge", e.Device, e.At)
		f.sample(e.At)
	case HedgeWon, HedgeCancelled:
		outcome := "lost"
		if e.Kind == HedgeWon {
			outcome = "won"
		}
		f.tr.Add(trace.Span{
			Name:     fmt.Sprintf("%s hedge %s on %s", e.Task, outcome, e.Device),
			Category: "hedge", Resource: e.Device,
			Start: f.hedged[e.Task], End: e.At, Value: e.Value,
		})
		delete(f.hedged, e.Task)
		f.sample(e.At)
	case HedgePromoted:
		delete(f.hedged, e.Task)
		f.mark(fmt.Sprintf("%s hedge promoted on %s", e.Task, e.Device), "hedge", e.Device, e.At)
	case DeadlineMissed:
		f.mark(fmt.Sprintf("%s %s (deadline %gs)", e.Task, e.Detail, e.Value), "deadline", e.Task, e.At)
	}
}

// mark records a zero-width span.
func (f *SpanFold) mark(name, category, resource string, at sim.Time) {
	f.tr.Add(trace.Span{Name: name, Category: category, Resource: resource, Start: at, End: at})
}

// sample records the fleet draw as an instant "power" span. Draw only
// changes at task boundaries, so sampling there captures every level of
// the draw-vs-time curve (internal/plot renders it from
// Tracer.Series("power")).
func (f *SpanFold) sample(at sim.Time) {
	if f.draw != nil {
		f.tr.Add(trace.Span{Name: "fleet-draw", Category: "power", Resource: "fleet",
			Start: at, End: at, Value: f.draw()})
	}
}

// ---------------------------------------------------------------------------
// Per-task timeline breakdown
// ---------------------------------------------------------------------------

// TaskTimeline is the per-task breakdown derived from one session's
// spans: when the task was queued, when its committed execution ran and
// where, how long it waited, how often it re-ran, and how much
// speculative (hedge) execution overlapped it.
type TaskTimeline struct {
	Name   string `json:"name"`
	Device string `json:"device,omitempty"`
	// QueuedAt is when the task entered the dependence graph ("queue"
	// span); Start/End bound the last committed execution.
	QueuedAt sim.Time `json:"queued_at"`
	Start    sim.Time `json:"start"`
	End      sim.Time `json:"end"`
	// QueueWait = Start − QueuedAt: dependence stalls plus placement
	// parking (core or watt admission).
	QueueWait sim.Time `json:"queue_wait"`
	Exec      sim.Time `json:"exec"`
	// Executions counts committed runs ("task" spans); Retries counts
	// re-queues after failures or corrupted outputs ("failure" spans).
	Executions int `json:"executions"`
	Retries    int `json:"retries"`
	// HedgeOverlap totals the time speculative replicas raced this task
	// (duration of resolved "hedge" spans).
	HedgeOverlap sim.Time `json:"hedge_overlap,omitempty"`
	// Shed marks a task skipped by graceful deadline degradation; it
	// never executed.
	Shed bool `json:"shed,omitempty"`
}

// Latency is the queued-to-committed span of the task.
func (t TaskTimeline) Latency() sim.Time {
	if t.End > t.QueuedAt {
		return t.End - t.QueuedAt
	}
	return 0
}

// Timelines derives the per-task breakdown from tracer spans. Task names
// are unique within a job; a session that reuses a task name across jobs
// merges those rows (timestamps are job-relative virtual time, so
// cross-job rows are indicative, not additive). Rows sort by name.
func Timelines(spans []trace.Span) []TaskTimeline {
	byName := make(map[string]*TaskTimeline)
	get := func(name string) *TaskTimeline {
		tl, ok := byName[name]
		if !ok {
			tl = &TaskTimeline{Name: name}
			byName[name] = tl
		}
		return tl
	}
	for _, s := range spans {
		switch s.Category {
		case "queue":
			tl := get(s.Name)
			if tl.QueuedAt == 0 || s.Start < tl.QueuedAt {
				tl.QueuedAt = s.Start
			}
		case "task":
			tl := get(s.Name)
			tl.Executions++
			tl.Device, tl.Start, tl.End = s.Resource, s.Start, s.End
		case "failure":
			if task := s.Resource; task != "" && strings.HasPrefix(s.Name, task+"#retry") {
				get(task).Retries++
			}
		case "hedge":
			if s.End > s.Start {
				// Resolved race: "<task> hedge won|lost on <device>".
				if i := strings.Index(s.Name, " hedge "); i > 0 {
					get(s.Name[:i]).HedgeOverlap += s.End - s.Start
				}
			}
		case "deadline":
			if task, ok := strings.CutSuffix(s.Name, "#shed"); ok {
				tl := get(task)
				tl.Shed = true
				tl.End = s.Start
			}
		}
	}
	out := make([]TaskTimeline, 0, len(byName))
	for _, tl := range byName {
		if tl.Executions > 0 {
			tl.QueueWait = tl.Start - tl.QueuedAt
			tl.Exec = tl.End - tl.Start
		}
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TopSlowest returns the n timelines with the largest queued-to-commit
// latency, slowest first (name-ordered among equals); shed tasks sort by
// time spent queued before shedding.
func TopSlowest(tls []TaskTimeline, n int) []TaskTimeline {
	out := append([]TaskTimeline(nil), tls...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency() > out[j].Latency() })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TimelineTable renders timelines as an aligned operator table.
func TimelineTable(tls []TaskTimeline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-14s %10s %10s %10s %5s %5s %10s\n",
		"task", "device", "queued-s", "wait-s", "exec-s", "runs", "retry", "hedge-s")
	for _, tl := range tls {
		if tl.Shed {
			fmt.Fprintf(&sb, "%-24s %-14s %10.4f %10s %10s %5s %5d %10s\n",
				tl.Name, "(shed)", sim.ToSeconds(tl.QueuedAt), "-", "-", "-", tl.Retries, "-")
			continue
		}
		fmt.Fprintf(&sb, "%-24s %-14s %10.4f %10.4f %10.4f %5d %5d %10.4f\n",
			tl.Name, tl.Device, sim.ToSeconds(tl.QueuedAt), sim.ToSeconds(tl.QueueWait),
			sim.ToSeconds(tl.Exec), tl.Executions, tl.Retries, sim.ToSeconds(tl.HedgeOverlap))
	}
	return sb.String()
}

// DeviceUtilization sums committed execution time per device from "task"
// spans and returns it with the session makespan (the latest committed
// end over any job's clock).
func DeviceUtilization(spans []trace.Span) (busy map[string]sim.Time, makespan sim.Time) {
	busy = make(map[string]sim.Time)
	for _, s := range spans {
		if s.Category != "task" {
			continue
		}
		busy[s.Resource] += s.End - s.Start
		if s.End > makespan {
			makespan = s.End
		}
	}
	return busy, makespan
}

// ---------------------------------------------------------------------------
// Session dump (the legato-trace interchange format)
// ---------------------------------------------------------------------------

// SessionDump is the self-contained export of one session: every merged
// tracer span and counter, the full registry snapshot, and (when the
// session recorded one) the ordered event log. legato-trace loads this
// and converts to any exporter format.
type SessionDump struct {
	Name     string                        `json:"name,omitempty"`
	Spans    []trace.Span                  `json:"spans"`
	Counters map[string]float64            `json:"counters,omitempty"`
	Metrics  map[string]map[string]float64 `json:"metrics,omitempty"`
	Events   []Event                       `json:"events,omitempty"`
}

// Encode writes the dump as indented JSON.
func (d *SessionDump) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// DecodeSession reads a dump written by Encode.
func DecodeSession(r io.Reader) (*SessionDump, error) {
	var d SessionDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding session dump: %w", err)
	}
	return &d, nil
}
