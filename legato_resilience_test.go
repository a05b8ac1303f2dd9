package legato

// Tests for the resilience surface of the public API: typed sentinel
// errors, the Wait cancellation contract under concurrent waiters,
// WithFaults + Job.Checkpoint + TaskBuilder.Retry end-to-end, and the
// failure/checkpoint spans the tracer collects.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/fti"
	"legato/internal/hw"
	"legato/internal/obs"
)

// Every sentinel must be matchable with errors.Is through the public
// wrapper errors the API returns.
func TestTypedGraphErrors(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("frozen")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Submit(Task{Name: "bad", Gops: 1, In: []string{"ghost"}}); !errors.Is(err, ErrUndeclaredRegion) {
		t.Fatalf("undeclared input: err = %v, want ErrUndeclaredRegion", err)
	}
	if err := job.Submit(Task{Name: "ok", Gops: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := job.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := job.Submit(Task{Name: "late", Gops: 1}); !errors.Is(err, ErrGraphFrozen) {
		t.Fatalf("submit after start: err = %v, want ErrGraphFrozen", err)
	}
	if err := job.Checkpoint(4, fti.L1); !errors.Is(err, ErrGraphFrozen) {
		t.Fatalf("checkpoint after start: err = %v, want ErrGraphFrozen", err)
	}
	if err := job.Start(ctx); !errors.Is(err, ErrGraphFrozen) {
		t.Fatalf("double start: err = %v, want ErrGraphFrozen", err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := job.Checkpoint(0, fti.L1); err == nil {
		t.Fatal("non-positive checkpoint interval accepted")
	}
	if err := job.Checkpoint(1, fti.Level(99)); err == nil {
		t.Fatal("unknown checkpoint level accepted")
	}
}

// A cancelled job must yield the same typed error to every concurrent
// waiter — never a nil report with a nil error.
func TestWaitTypedCancellationConcurrent(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("doomed")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prev := job.Data("d0", 64)
	for i := 0; i < 8; i++ {
		next := job.Data(fmt.Sprintf("d%d", i+1), 64)
		b := job.Task(fmt.Sprintf("t%d", i)).Gops(10).In(prev).Out(next)
		if i == 4 {
			b = b.Do(cancel)
		}
		if err := b.Submit(); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	if err := job.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	reports := make([]*Report, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = job.Wait(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if reports[i] == nil && errs[i] == nil {
			t.Fatalf("waiter %d: nil report AND nil error", i)
		}
		if !errors.Is(errs[i], ErrJobCancelled) {
			t.Fatalf("waiter %d: err = %v, want ErrJobCancelled", i, errs[i])
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("waiter %d: err = %v does not carry context.Canceled", i, errs[i])
		}
	}
}

// WithFaults arms the session: the sampled crash removes a device
// fleet-wide, surviving jobs complete, and the loss is visible in the
// session stats and the shared fleet ledger.
func TestWithFaultsEndToEnd(t *testing.T) {
	// An FPGA MTBF of a microsecond pins the (single) sampled crash to the
	// session's first instants, before any placement can settle on it.
	plan := faults.Plan{MTBF: ft.MTBFModel{hw.FPGA: 1e-6}, MaxCrashes: 1, Seed: 1}
	sys, err := NewSystem(WithPolicy(MinTime), WithFaults(plan), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())

	ctx := context.Background()
	var jobs []*Job
	for n := 0; n < 4; n++ {
		job, err := sys.NewJob(fmt.Sprintf("survivor%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Checkpoint(2, fti.L1); err != nil {
			t.Fatal(err)
		}
		prev := job.Data("d0", 1<<16)
		for i := 0; i < 6; i++ {
			next := job.Data(fmt.Sprintf("d%d", i+1), 1<<16)
			if err := job.Task(fmt.Sprintf("t%d", i)).Gops(20).Retry(2).
				In(prev).Out(next).Submit(); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
		if err := job.Start(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		rep, err := job.Wait(ctx)
		if err != nil {
			t.Fatalf("job %s did not survive the crash: %v", job.Name(), err)
		}
		if rep.Checkpoints == 0 {
			t.Fatalf("job %s committed no checkpoints", job.Name())
		}
	}
	st := sys.Stats()
	if st.JobsCompleted != 4 {
		t.Fatalf("jobs completed = %d, want 4", st.JobsCompleted)
	}
	if st.DevicesLost != 1 {
		t.Fatalf("devices lost = %d, want 1", st.DevicesLost)
	}
	lost := 0
	for _, id := range sys.Fleet().Devices() {
		if sys.Fleet().Lost(id) {
			lost++
			if sys.Fleet().Capacity(id) != 0 {
				t.Fatalf("lost device %s still has capacity %d", id, sys.Fleet().Capacity(id))
			}
		}
	}
	if lost != 1 {
		t.Fatalf("fleet ledger records %d lost devices, want 1", lost)
	}
}

// A mid-run device loss on the job's preferred device surfaces in the
// report counters and as "failure" (and "checkpoint") spans in the session
// tracer.
func TestFailureSpansAndReportCounters(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	ctx := context.Background()

	// Probe which device the MinTime policy prefers for a 1-core task.
	probe, err := sys.NewJob("probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Task("p").Gops(1).Out(probe.Data("pd", 64)).Submit(); err != nil {
		t.Fatal(err)
	}
	pr, err := probe.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	favourite := pr.Records[0].Device

	job, err := sys.NewJob("victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Checkpoint(1, fti.L1); err != nil {
		t.Fatal(err)
	}
	prev := job.Data("d0", 1<<16)
	for i := 0; i < 4; i++ {
		next := job.Data(fmt.Sprintf("d%d", i+1), 1<<16)
		if err := job.Task(fmt.Sprintf("t%d", i)).Gops(50).Retry(3).
			In(prev).Out(next).Submit(); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	// Crash the favourite on this job's private clock mid-first-task; the
	// runtime re-places the revoked execution on a survivor.
	rt := job.ej.Runtime()
	rt.ScheduleFault(100*time.Microsecond, func() { rt.FailDevice(favourite) })

	rep, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRetried == 0 {
		t.Fatalf("no retries in report: %+v", rep)
	}
	for _, rec := range rep.Records {
		if rec.Device == favourite {
			t.Fatalf("task %s still ran on the crashed device %s", rec.Name, favourite)
		}
	}
	var failureSpans, ckptSpans int
	for _, sp := range sys.Tracer().Spans() {
		switch sp.Category {
		case "failure":
			failureSpans++
		case "checkpoint":
			ckptSpans++
		}
	}
	if failureSpans == 0 {
		t.Fatal("tracer has no failure spans")
	}
	if ckptSpans == 0 || rep.Checkpoints == 0 {
		t.Fatalf("tracer ckpt spans = %d, report checkpoints = %d, want both > 0",
			ckptSpans, rep.Checkpoints)
	}
}

// A job that fails terminally still leaves its trace in the session: its
// #failed span reaches Tracer and the export, merged once however often
// the job is awaited (as a completed job's spans are), while the jobs
// counter keeps counting completions.
func TestFailedJobTraceReachesSession(t *testing.T) {
	sdc := ft.SDCModel{}
	for _, c := range []hw.Class{hw.CPUx86, hw.CPUARM, hw.GPU, hw.FPGA} {
		sdc[c] = 1
	}
	sys, err := NewSystem(WithPlatform(CloudPlatform), WithFaults(faults.Plan{SDC: sdc, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	ctx := context.Background()

	ok, err := sys.NewJob("ok")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Task("plain").Gops(5).Submit(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Run(ctx); err != nil {
		t.Fatal(err)
	}
	merged := len(sys.Tracer().Spans())
	if _, err := ok.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Tracer().Spans()); got != merged || merged == 0 {
		t.Fatalf("second wait on a completed job: %d spans, want the %d of the first", got, merged)
	}
	doomed, err := sys.NewJob("doomed")
	if err != nil {
		t.Fatal(err)
	}
	// Every replica execution corrupts, so the vote never gets inputs.
	if err := doomed.Task("voted").Gops(5).Replicated().Retry(1).Submit(); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Run(ctx); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if _, err := doomed.Wait(ctx); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("second wait: err = %v, want ErrRetriesExhausted", err)
	}

	var buf bytes.Buffer
	if err := sys.ExportSession(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.DecodeSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range dump.Spans {
		if s.Category == "failure" && strings.Contains(s.Name, "#failed(") {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("export holds %d #failed spans, want exactly 1", failed)
	}
	if got := dump.Counters["jobs"]; got != 1 {
		t.Fatalf("jobs counter = %v, want 1 (the completed job only)", got)
	}
}
