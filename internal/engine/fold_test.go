package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/sim"
	"legato/internal/taskrt"
	"legato/internal/trace"
)

// hasSpan reports whether spans hold one of the category with the name.
func hasSpan(spans []trace.Span, category, name string) bool {
	for _, s := range spans {
		if s.Category == category && s.Name == name {
			return true
		}
	}
	return false
}

// A strict-deadline miss fails the job terminally: the TaskFailed event
// reaches the registry (job scope and "faults") and the job trace, not
// just the bus.
func TestTaskFailedFolds(t *testing.T) {
	e := newTestEngine(t, 1)
	j, err := e.NewJob("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Runtime().Submit(taskrt.Task{Name: "doomed/t0", Gops: 800, Deadline: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); !errors.Is(err, taskrt.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	reg := e.cfg.Registry
	if got := reg.Get("job/doomed", "tasks-failed"); got != 1 {
		t.Fatalf("job/doomed tasks-failed = %v, want 1", got)
	}
	if got := reg.Get("faults", "tasks-failed"); got != 1 {
		t.Fatalf("faults tasks-failed = %v, want 1", got)
	}
	if !hasSpan(j.Tracer().Spans(), "failure", "doomed/t0#failed(deadline)") {
		t.Fatalf("job trace has no failure span: %+v", j.Tracer().Spans())
	}
}

// The straggling primary's device dies under its racing replica, which is
// promoted to sole execution: the promotion reaches the "tail" scope and
// the job trace.
func TestHedgePromotedFolds(t *testing.T) {
	reg := monitor.NewRegistry()
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: tailTestPlatform(),
		Registry: reg, Hedge: taskrt.HedgePolicy{Multiplier: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	ctx := context.Background()

	j, err := e.NewJob("promote")
	if err != nil {
		t.Fatal(err)
	}
	rt := j.Runtime()
	// As in TestHedgeRacesHedgeDeviceLoss: the degraded primary straggles
	// and is hedged onto dev/backup at 6 s; here its own device dies at 8 s.
	rt.DegradeDevice("dev/fast", 4)
	rt.ScheduleFault(8*time.Second, func() {
		e.Fleet().Fail("dev/fast")
		rt.FailDevice("dev/fast")
	})
	if err := rt.Submit(taskrt.Task{Name: "promote/t0", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not survive losing its primary's device: %v", err)
	}
	if rec := res.Records[0]; rec.Device != "dev/backup" || !rec.Hedged || res.TasksRetried != 0 {
		t.Fatalf("record device=%s hedged=%v retries=%d, want the promoted replica", rec.Device, rec.Hedged, res.TasksRetried)
	}
	if got := reg.Get("tail", "hedges-promoted"); got != 1 {
		t.Fatalf("tail hedges-promoted = %v, want 1", got)
	}
	spans := j.Tracer().Spans()
	if !hasSpan(spans, "hedge", "promote/t0 hedge promoted on dev/backup") {
		t.Fatalf("job trace has no promotion span: %+v", spans)
	}
	// The committed execution spans from the primary's launch: the task's
	// latency includes the straggling window.
	for _, s := range spans {
		if s.Category == "task" && (s.Start != 0 || s.Resource != "dev/backup" || !strings.HasPrefix(s.Name, "promote/")) {
			t.Fatalf("task span %+v, want promote/t0 on dev/backup from 0", s)
		}
	}
	if busy := reg.Get("device/dev/backup", "busy-s"); busy != sim.ToSeconds(res.Records[0].End) {
		t.Fatalf("dev/backup busy-s = %v, want the full %v", busy, res.Records[0].End)
	}
}

// sessionEvents logs one seeded single-worker session that queues, runs,
// crashes, retries, degrades and hedges: eight 4×6 chain jobs on a mixed
// fleet under a fault plan and a 1.5× hedge policy.
func sessionEvents(b *testing.B) []obs.Event {
	b.Helper()
	bus := obs.NewBus()
	var log obs.Collector
	bus.Observe(log.Observe)
	plan := faults.Plan{
		MTBF: ft.MTBFModel{hw.CPUARM: 2}, MaxCrashes: 1,
		DegradeMTBF: ft.MTBFModel{hw.CPUx86: 0.5}, DegradeTo: 0.5, DegradeSlowdown: 4,
		Seed: 1,
	}
	fleet := []*hw.Device{
		{ID: "x86", Spec: hw.XeonD()},
		{ID: "arm0", Spec: hw.ARMv8Server()},
		{ID: "arm1", Spec: hw.ARMv8Server()},
		{ID: "gpu", Spec: hw.JetsonTX2()},
	}
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: fleet, Bus: bus,
		Faults: &plan, Hedge: taskrt.HedgePolicy{Multiplier: 1.5}})
	if err != nil {
		b.Fatal(err)
	}
	// Build every job before submitting any: a job created after another
	// has crossed the crash starts with the device silently lost, so
	// interleaving creation with the run would change the log.
	var jobs []*Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, wideJob(b, e, fmt.Sprintf("job%d", i), 4, 6))
	}
	ctx := context.Background()
	for _, j := range jobs {
		if err := e.Submit(ctx, j); err != nil {
			b.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			b.Fatalf("job %s: %v", j.Name, err)
		}
	}
	if err := e.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	return log.Events()
}

// benchFold times folding the logged session through a fresh fold per
// iteration; ns/event and allocs/event divide by the events folded.
func benchFold(b *testing.B, fold func() func(obs.Event)) {
	events := sessionEvents(b)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply := fold()
		for _, ev := range events {
			apply(ev)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}

// BenchmarkRegistryFoldApply measures the registry view's per-event cost.
func BenchmarkRegistryFoldApply(b *testing.B) {
	benchFold(b, func() func(obs.Event) {
		return NewRegistryFold(monitor.NewRegistry(), "job").Apply
	})
}

// BenchmarkSpanFoldApply measures the trace view's per-event cost, power
// samples included.
func BenchmarkSpanFoldApply(b *testing.B) {
	benchFold(b, func() func(obs.Event) {
		return obs.NewSpanFold(trace.New(sim.NewEngine()), func() float64 { return 0 }).Apply
	})
}
