package legato

// Tests for the public API: functional options, the multi-job engine
// surface (Job/Run(ctx)/Stats) and DataHandle + TaskBuilder.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"legato/internal/secure"
)

func TestOptionDefaults(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	if sys.Platform() != CloudPlatform {
		t.Fatalf("platform = %v, want CloudPlatform", sys.Platform())
	}
	if sys.Policy() != MinEnergy {
		t.Fatalf("policy = %v, want MinEnergy (the project default)", sys.Policy())
	}
	if sys.TEE() != secure.SGX {
		t.Fatalf("tee = %v, want SGX", sys.TEE())
	}
	if sys.Workers() < 2 {
		t.Fatalf("workers = %d, want >= 2", sys.Workers())
	}
}

func TestOptionsCompose(t *testing.T) {
	sys, err := NewSystem(
		WithPlatform(EdgePlatform),
		WithPolicy(MinEDP),
		WithTEE(secure.TrustZone),
		WithRootKey([]byte("test-platform-root-key-000000000")),
		WithWorkers(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	if sys.Platform() != EdgePlatform || sys.Policy() != MinEDP ||
		sys.TEE() != secure.TrustZone || sys.Workers() != 3 {
		t.Fatalf("options not applied: platform=%v policy=%v tee=%v workers=%d",
			sys.Platform(), sys.Policy(), sys.TEE(), sys.Workers())
	}
}

// TestTEESentinelGone pins the headline fix of the options redesign: with
// WithTEE the SoftwareOnly value is honoured, not coerced to SGX.
func TestTEESentinelGone(t *testing.T) {
	viaOption, err := NewSystem(WithTEE(secure.SoftwareOnly))
	if err != nil {
		t.Fatal(err)
	}
	defer viaOption.Close(context.Background())
	if viaOption.TEE() != secure.SoftwareOnly {
		t.Fatalf("WithTEE(SoftwareOnly) coerced to %v", viaOption.TEE())
	}
}

func TestUndeclaredInputRejected(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("strict")
	if err != nil {
		t.Fatal(err)
	}
	err = job.Submit(Task{Name: "reader", Gops: 1, In: []string{"ghost"}})
	if err == nil || !strings.Contains(err.Error(), "never declared") {
		t.Fatalf("undeclared input accepted: %v", err)
	}
	if err := job.Submit(Task{Name: "toucher", Gops: 1, InOut: []string{"ghost"}}); err == nil {
		t.Fatal("undeclared inout accepted")
	}
	job.Data("ghost", 128)
	if err := job.Submit(Task{Name: "reader", Gops: 1, In: []string{"ghost"}}); err != nil {
		t.Fatalf("declared input rejected: %v", err)
	}
	// Out legitimately declares: a writer is its region's producer.
	if err := job.Submit(Task{Name: "writer", Gops: 1, Out: []string{"fresh"}}); err != nil {
		t.Fatalf("producer rejected: %v", err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestForeignHandleRejected(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	jobA, _ := sys.NewJob("a")
	jobB, _ := sys.NewJob("b")
	theirs := jobA.Data("theirs", 64)
	err = jobB.Task("thief").Gops(1).In(theirs).Submit()
	if err == nil || !strings.Contains(err.Error(), "belongs to job") {
		t.Fatalf("foreign handle accepted: %v", err)
	}
	var zero DataHandle
	if err := jobB.Task("zero").In(zero).Submit(); err == nil {
		t.Fatal("zero handle accepted")
	}
}

// TestConcurrentSubmit hammers one job from many goroutines and then runs
// it — the -race guarantee the old System never gave.
func TestConcurrentSubmit(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("hammered")
	if err != nil {
		t.Fatal(err)
	}
	const gs, perG = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, gs*perG)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := job.Data(fmt.Sprintf("lane%d/d0", g), 64)
			for i := 0; i < perG; i++ {
				next := job.Data(fmt.Sprintf("lane%d/d%d", g, i+1), 64)
				if err := job.Task(fmt.Sprintf("lane%d/t%d", g, i)).
					Gops(5).In(prev).Out(next).Submit(); err != nil {
					errs <- err
				}
				prev = next
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != gs*perG {
		t.Fatalf("records = %d, want %d", len(rep.Records), gs*perG)
	}
}

func TestCancellationMidRun(t *testing.T) {
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
	for i := 0; i < 10; i++ {
		next := job.Data(fmt.Sprintf("d%d", i+1), 64)
		b := job.Task(fmt.Sprintf("t%d", i)).Gops(10).In(prev).Out(next)
		if i == 5 {
			b = b.Do(cancel) // the graph cancels itself mid-run
		}
		if err := b.Submit(); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	_, err = job.Run(ctx)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("err = %v, want context.Canceled wrapped with ErrJobCancelled", err)
	}
	if job.State() != "cancelled" {
		t.Fatalf("state = %q, want cancelled", job.State())
	}
	if st := sys.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("stats = %+v, want one cancelled job", st)
	}
}

func TestPerJobDeadline(t *testing.T) {
	sys, err := NewSystem(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("tardy")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Task("work").Gops(50).Submit(); err != nil {
		t.Fatal(err)
	}
	job.SetTimeout(time.Nanosecond)
	if _, err := job.Run(context.Background()); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("err = %v, want context.DeadlineExceeded wrapped with ErrJobCancelled", err)
	}
}

func TestMonitorAndTraceSurface(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("observed")
	if err != nil {
		t.Fatal(err)
	}
	d := job.Data("d", 64)
	if err := job.Task("one").Gops(10).Out(d).Submit(); err != nil {
		t.Fatal(err)
	}
	if err := job.Task("two").Gops(10).In(d).Submit(); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := sys.Monitor()
	if got := reg.Get("job/observed", "tasks-completed"); got != 2 {
		t.Fatalf("tasks-completed = %v, want 2", got)
	}
	deviceScoped := false
	for _, scope := range reg.Scopes() {
		if strings.HasPrefix(scope, "device/") {
			deviceScoped = true
		}
	}
	if !deviceScoped {
		t.Fatalf("no per-device counters in %v", reg.Scopes())
	}
	var taskSpans, powerSpans int
	for _, s := range sys.Tracer().Spans() {
		switch s.Category {
		case "task":
			taskSpans++
		case "power":
			powerSpans++
			if s.Value < 0 {
				t.Fatalf("power sample with negative draw: %+v", s)
			}
		}
	}
	if taskSpans != 2 {
		t.Fatalf("session trace has %d task spans, want 2", taskSpans)
	}
	// Draw is sampled at every task boundary (start + finish).
	if powerSpans != 4 {
		t.Fatalf("session trace has %d power samples, want 4", powerSpans)
	}
	if xs, ys := sys.Tracer().Series("power"); len(xs) != 4 || len(ys) != 4 {
		t.Fatalf("Series(power) = %d/%d points, want 4", len(xs), len(ys))
	}
	if sys.Tracer().Counter("jobs") != 1 {
		t.Fatalf("jobs counter = %v", sys.Tracer().Counter("jobs"))
	}
}

// buildThroughputJob populates one of the independent benchmark jobs: four
// parallel chains of five dependent tasks.
func buildThroughputJob(job *Job) error {
	for c := 0; c < 4; c++ {
		prev := job.Data(fmt.Sprintf("c%d/d0", c), 1024)
		for i := 0; i < 5; i++ {
			next := job.Data(fmt.Sprintf("c%d/d%d", c, i+1), 1024)
			if err := job.Task(fmt.Sprintf("c%d/t%d", c, i)).
				Gops(25).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

// runThroughputSession runs 8 independent jobs through a system with the
// given worker-pool width and returns the session stats. Extra options
// compose after the baseline ones (the observer-overhead benchmark adds
// observability variants on the same workload).
func runThroughputSession(t testing.TB, workers int, extra ...Option) SessionStats {
	t.Helper()
	opts := append([]Option{WithPolicy(MinTime), WithWorkers(workers)}, extra...)
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	ctx := context.Background()
	var jobs []*Job
	for n := 0; n < 8; n++ {
		job, err := sys.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildThroughputJob(job); err != nil {
			t.Fatal(err)
		}
		if err := job.Start(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return sys.Stats()
}

// TestMultiJobThroughput is the acceptance gate for the concurrent engine:
// 8 independent jobs through an 8-wide engine must yield at least twice
// the throughput of serial submission, measured in fleet time.
func TestMultiJobThroughput(t *testing.T) {
	serial := runThroughputSession(t, 1)
	if serial.SessionMakespan != serial.TotalJobTime {
		t.Fatalf("serial session %v != sum of job makespans %v",
			serial.SessionMakespan, serial.TotalJobTime)
	}
	conc := runThroughputSession(t, 8)
	if conc.JobsCompleted != 8 || conc.TasksCompleted != 8*4*5 {
		t.Fatalf("stats: %+v", conc)
	}
	speedup := float64(serial.SessionMakespan) / float64(conc.SessionMakespan)
	t.Logf("serial fleet time %v, concurrent %v, speedup %.2fx (stalls: %d)",
		serial.SessionMakespan, conc.SessionMakespan, speedup, conc.AdmissionStalls)
	if speedup < 2 {
		t.Fatalf("concurrent engine speedup %.2fx, want >= 2x", speedup)
	}
}
