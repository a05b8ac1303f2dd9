package legato

// Tests for the unified observability layer: the session event bus
// surfaced through WithObserver / Events / EventLog, the determinism of
// the ordered event log on serialized sessions, and the exported session
// artifacts (Chrome trace_event JSON, Prometheus text, session dump).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/power"
)

// observedSessionCap probes the cloud platform's peak draw once so the
// observability sessions run under real cap pressure.
func observedSessionCap(t testing.TB) float64 {
	t.Helper()
	probe, err := NewSystem(WithPlatform(CloudPlatform))
	if err != nil {
		t.Fatal(err)
	}
	capW := 0.6 * float64(power.FleetPeakWatts(probe.Devices()))
	if err := probe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	return capW
}

// buildObservedJob fills a job with two four-stage chains of wide tasks
// (stressing admission and the cap) plus a deadline-bearing report task
// that the degraded session sheds.
func buildObservedJob(job *Job) error {
	var outs []DataHandle
	for c := 0; c < 2; c++ {
		prev := job.Data(fmt.Sprintf("c%d/in", c), 4096)
		for s := 0; s < 4; s++ {
			next := job.Data(fmt.Sprintf("c%d/s%d", c, s), 4096)
			if err := job.Task(fmt.Sprintf("c%d/stage%d", c, s)).
				Gops(400).Cores(8).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
		outs = append(outs, prev)
	}
	return job.Task("report").Gops(40).Cores(1).In(outs...).
		Deadline(8 * time.Second).Submit()
}

// runObservedSession runs a serialized (one worker, jobs awaited one at
// a time) faulty, hedged, power-capped two-job session and returns the
// system for inspection. Serialization plus the fixed fault seed makes
// the event stream fully deterministic.
func runObservedSession(t testing.TB, capW float64, extra ...Option) *System {
	t.Helper()
	opts := append([]Option{
		WithPlatform(CloudPlatform),
		WithPolicy(MinTime),
		WithWorkers(1),
		WithPowerCap(capW),
		WithFaults(faults.Plan{
			DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
			DegradeTo:       1.0,
			DegradeSlowdown: 6.0,
			Seed:            7,
		}),
		WithHedging(HedgePolicy{Multiplier: 1.5}),
		WithDeadlineMode(DeadlineShed),
	}, extra...)
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 0; n < 2; n++ {
		job, err := sys.NewJob(fmt.Sprintf("render-%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildObservedJob(job); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestEventLogDeterministicSerialized is the acceptance witness for the
// event stream: two runs of the same serialized seeded session must
// produce byte-identical ordered event logs.
func TestEventLogDeterministicSerialized(t *testing.T) {
	capW := observedSessionCap(t)
	run := func() string {
		sys := runObservedSession(t, capW, WithEventLog())
		defer sys.Close(context.Background())
		return obs.FormatLog(sys.EventLog())
	}
	first := run()
	if first == "" {
		t.Fatal("event log is empty")
	}
	for _, kind := range []EventKind{
		EvTaskQueued, EvTaskPlaced, EvTaskStarted, EvTaskCompleted,
		EvPowerAdmitted, EvFaultInjected, EvHedgeArmed, EvHedgeLaunched,
		EvDeadlineMissed, EvTaskShed,
	} {
		if !strings.Contains(first, kind.String()) {
			t.Fatalf("event log never saw %v:\n%s", kind, first)
		}
	}
	second := run()
	if first != second {
		t.Fatalf("event log not byte-identical across runs:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestSystemEventsChannel exercises the bounded subscription surface:
// events flow while jobs run, nothing is dropped with an attentive
// consumer, and Close ends the feed.
func TestSystemEventsChannel(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	feed := sys.Events()
	if again := sys.Events(); again != feed {
		t.Fatal("Events must return one shared channel")
	}
	counts := make(map[EventKind]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for e := range feed {
			counts[e.Kind]++
		}
	}()
	ctx := context.Background()
	for n := 0; n < 2; n++ {
		job, err := sys.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildThroughputJob(job); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(ctx); err != nil {
		t.Fatal(err)
	}
	<-drained
	wantTasks := 2 * 4 * 5
	if counts[EvTaskCompleted] != wantTasks {
		t.Fatalf("feed saw %d completions, want %d (counts: %v)", counts[EvTaskCompleted], wantTasks, counts)
	}
	if counts[EvTaskQueued] != wantTasks || counts[EvTaskStarted] != wantTasks || counts[EvTaskPlaced] != wantTasks {
		t.Fatalf("lifecycle counts inconsistent: %v", counts)
	}
	if got := sys.EventsDropped(); got != 0 {
		t.Fatalf("attentive consumer dropped %d events", got)
	}
}

// TestWithObserverInline registers a synchronous observer and checks it
// sees the global sequence exactly once per event.
func TestWithObserverInline(t *testing.T) {
	var col obs.Collector
	sys, err := NewSystem(WithPolicy(MinTime), WithWorkers(1), WithObserver(col.Observe))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("solo")
	if err != nil {
		t.Fatal(err)
	}
	if err := buildThroughputJob(job); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("observer saw nothing")
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has sequence %d — stream not gapless", i, e.Seq)
		}
		if e.Job != "solo" {
			t.Fatalf("event %d attributed to job %q", i, e.Job)
		}
	}
}

// TestExportSessionArtifacts runs the observed session, exports the
// dump, and validates every derived artifact: round-trip decode, valid
// Chrome JSON, Prometheus exposition, timeline derivation.
func TestExportSessionArtifacts(t *testing.T) {
	sys := runObservedSession(t, observedSessionCap(t), WithEventLog())
	defer sys.Close(context.Background())

	var buf bytes.Buffer
	if err := sys.ExportSession(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.DecodeSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 || len(dump.Events) == 0 || len(dump.Metrics) == 0 {
		t.Fatalf("dump incomplete: %d spans, %d events, %d metric scopes",
			len(dump.Spans), len(dump.Events), len(dump.Metrics))
	}

	chrome, err := obs.ChromeTrace(dump.Spans, dump.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) < len(dump.Spans) {
		t.Fatalf("chrome trace has %d events for %d spans", len(ct.TraceEvents), len(dump.Spans))
	}

	prom := obs.PrometheusText(dump.Metrics)
	for _, frag := range []string{"legato_tasks_completed", `scope="job"`, `scope="device"`} {
		if !strings.Contains(prom, frag) {
			t.Fatalf("prometheus exposition missing %q:\n%s", frag, prom)
		}
	}

	tls := obs.Timelines(dump.Spans)
	if len(tls) == 0 {
		t.Fatal("no task timelines derived")
	}
	sawExec := false
	for _, tl := range tls {
		if tl.Executions > 0 && tl.Exec > 0 {
			sawExec = true
		}
	}
	if !sawExec {
		t.Fatal("timelines carry no execution intervals")
	}
}

// TestExportSessionMatchesEncodingJSON pins the streamed export of a
// real capped, hedged, event-logged session to encoding/json's indented
// encoding of the same dump, byte for byte.
func TestExportSessionMatchesEncodingJSON(t *testing.T) {
	sys := runObservedSession(t, observedSessionCap(t), WithEventLog())
	defer sys.Close(context.Background())

	var got, want bytes.Buffer
	if err := sys.ExportSession(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(obs.SessionDump{
		Name:     "legato-session",
		Spans:    sys.Tracer().Spans(),
		Counters: sys.Tracer().Counters(),
		Metrics:  sys.Monitor().Snapshot(),
		Events:   sys.EventLog(),
	}); err != nil {
		t.Fatal(err)
	}
	if len(sys.EventLog()) == 0 || len(sys.Tracer().Spans()) == 0 {
		t.Fatal("the observed session recorded nothing to export")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("ExportSession (%d bytes) differs from encoding/json (%d bytes)", got.Len(), want.Len())
	}
}
