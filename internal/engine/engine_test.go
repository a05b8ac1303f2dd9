package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/taskrt"
)

// testPlatform is a two-device fleet: an 8-core CPU and a 4-region FPGA,
// enough to exercise placement and admission.
func testPlatform() []*hw.Device {
	cpu := hw.Spec{Name: "cpu", Class: hw.CPUx86, Cores: 8, GOPS: 80, IdleWatts: 10, PeakWatts: 60}
	fpga := hw.Spec{Name: "fpga", Class: hw.FPGA, Cores: 4, GOPS: 120, IdleWatts: 5, PeakWatts: 25}
	return []*hw.Device{{ID: "dev/cpu", Spec: cpu}, {ID: "dev/fpga", Spec: fpga}}
}

func newTestEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	e, err := New(Config{Workers: workers, Policy: taskrt.MinTime, Fleet: testPlatform(),
		Registry: monitor.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown(context.Background()) })
	return e
}

// chainJob builds a job of `depth` dependent tasks of `cores` width each.
func chainJob(t testing.TB, e *Engine, name string, depth, cores int, fn func()) *Job {
	t.Helper()
	j, err := e.NewJob(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := j.Runtime()
	prev := rt.Data(name+"/d0", 64)
	for i := 0; i < depth; i++ {
		next := rt.Data(fmt.Sprintf("%s/d%d", name, i+1), 64)
		task := taskrt.Task{Name: fmt.Sprintf("%s/t%d", name, i), Gops: 20, Cores: cores,
			In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next}}
		if i == depth/2 {
			task.Fn = fn
		}
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	return j
}

// TestCancelledSuspendedJobReleasesCores: a job cancelled while suspended
// on a sibling's grants leaves no core claimed on any device. The runtime's
// own TestCancelOnResumeReleasesCores covers a cancel just as it resumes.
func TestCancelledSuspendedJobReleasesCores(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t, 1)
	f := e.Fleet()
	// The sibling's grants fill both devices.
	if f.Claim("dev/cpu", 8, 0) != power.Granted || f.Claim("dev/fpga", 4, 0) != power.Granted {
		t.Fatal("sibling acquire refused")
	}
	stalls := f.Read(nil).CoreStalls
	j := chainJob(t, e, "j", 4, 1, nil)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	for f.Read(nil).CoreStalls == stalls {
		time.Sleep(10 * time.Microsecond)
	}
	j.Cancel()
	f.Release("dev/cpu", 8, 0)
	f.Release("dev/fpga", 4, 0)
	if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if n := f.InUse(id); n != 0 {
			t.Fatalf("%d cores of %s left in use after shutdown", n, id)
		}
	}
}

// wideJob builds a job of `chains` independent chains of `depth` 1-core
// tasks: alone it fills the 4-region FPGA, so concurrent copies contend.
func wideJob(t testing.TB, e *Engine, name string, chains, depth int) *Job {
	t.Helper()
	j, err := e.NewJob(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := j.Runtime()
	for c := 0; c < chains; c++ {
		prev := rt.Data(fmt.Sprintf("%s/c%d/d0", name, c), 64)
		for i := 0; i < depth; i++ {
			next := rt.Data(fmt.Sprintf("%s/c%d/d%d", name, c, i+1), 64)
			if err := rt.Submit(taskrt.Task{Name: fmt.Sprintf("c%d/t%d", c, i), Gops: 20, Cores: 1,
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next}}); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
	}
	return j
}

// TestContendedJobsKeepSoloSchedule: jobs that contend for the same device
// are suspended on their clocks rather than stepped past the stall, so
// every job's schedule (device, start and end of each task) is the one it
// has alone, however the goroutines interleave.
func TestContendedJobsKeepSoloSchedule(t *testing.T) {
	ctx := context.Background()
	solo := newTestEngine(t, 1)
	j := wideJob(t, solo, "solo", 4, 4)
	if err := solo.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	want, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		e := newTestEngine(t, 8)
		var jobs []*Job
		for i := 0; i < 8; i++ {
			j := wideJob(t, e, fmt.Sprintf("job%d", i), 4, 4)
			jobs = append(jobs, j)
			if err := e.Submit(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			got, err := j.Wait(ctx)
			if err != nil {
				t.Fatalf("round %d job %s: %v", round, j.Name, err)
			}
			for k, rec := range got.Records {
				w := want.Records[k]
				if rec.Device != w.Device || rec.Start != w.Start || rec.End != w.End {
					t.Fatalf("round %d job %s task %s: %s [%v, %v], alone %s [%v, %v]", round, j.Name,
						rec.Name, rec.Device, rec.Start, rec.End, w.Device, w.Start, w.End)
				}
			}
		}
		if err := e.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"dev/cpu", "dev/fpga"} {
			if f := e.Fleet(); f.Peak(id) > f.Capacity(id) || f.InUse(id) != 0 {
				t.Fatalf("round %d %s: peak %d of %d, %d left in use", round, id, f.Peak(id), f.Capacity(id), f.InUse(id))
			}
		}
		if st := e.Stats(); st.Speedup() != 8 {
			t.Fatalf("round %d: fleet-time speedup %.2f, want 8 (one lane per job)", round, st.Speedup())
		}
	}
}

func TestConcurrentJobsNeverOversubscribe(t *testing.T) {
	e := newTestEngine(t, 8)
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j := chainJob(t, e, fmt.Sprintf("job%d", i), 6, 3, nil)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if e.Fleet().Peak(id) > e.Fleet().Capacity(id) {
			t.Fatalf("device %s oversubscribed: peak %d > cap %d",
				id, e.Fleet().Peak(id), e.Fleet().Capacity(id))
		}
		if e.Fleet().InUse(id) != 0 {
			t.Fatalf("device %s stranded capacity: %d in use", id, e.Fleet().InUse(id))
		}
	}
	st := e.Stats()
	if st.JobsCompleted != 12 || st.TasksCompleted != 12*6 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestConcurrentMoldableJobsNeverOversubscribe: each job molds its tasks
// against the cores its own runtime holds, so the whole fleet looks free to
// it and concurrent jobs pick widths that collide on the fleet ledger and
// stall.
// Admission must still keep every device within capacity and get every
// core back.
func TestConcurrentMoldableJobsNeverOversubscribe(t *testing.T) {
	bus := obs.NewBus()
	var mu sync.Mutex
	widest := 0
	bus.Observe(func(ev obs.Event) {
		if ev.Kind == obs.TaskPlaced {
			mu.Lock()
			widest = max(widest, int(ev.Value))
			mu.Unlock()
		}
	})
	e, err := New(Config{Workers: 4, Policy: taskrt.MinTime, Fleet: testPlatform(), Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown(context.Background()) })
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 4; i++ {
		// Two chains of ten moldable tasks: two ready tasks at a time,
		// each molding to about half of a device.
		j, err := e.NewJob(fmt.Sprintf("mold%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rt := j.Runtime()
		for c := 0; c < 2; c++ {
			prev := rt.Data(fmt.Sprintf("mold%d/c%d/d0", i, c), 64)
			for k := 0; k < 10; k++ {
				next := rt.Data(fmt.Sprintf("mold%d/c%d/d%d", i, c, k+1), 64)
				if err := rt.Submit(taskrt.Task{
					Name: fmt.Sprintf("mold%d/c%d/t%d", i, c, k), Gops: 40 + 20*float64(c), Cores: 1,
					Mold: &taskrt.Moldable{MaxCores: 8, ParallelFrac: 0.9},
					In:   []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
				}); err != nil {
					t.Fatal(err)
				}
				prev = next
			}
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if f := e.Fleet(); f.Peak(id) > f.Capacity(id) || f.InUse(id) != 0 {
			t.Fatalf("%s: peak %d of %d, %d left in use", id, f.Peak(id), f.Capacity(id), f.InUse(id))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if widest < 2 {
		t.Fatalf("widest placement %d cores: no task molded", widest)
	}
}

// TestContentionSerializes forces every job through a single 4-core-wide
// bottleneck: tasks demand the FPGA's full width, so admission must
// serialise them and every parked job must still finish.
func TestContentionSerializes(t *testing.T) {
	e := newTestEngine(t, 6)
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := e.NewJob(fmt.Sprintf("narrow%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := j.Runtime().Submit(taskrt.Task{
				Name: fmt.Sprintf("n%d", k), Gops: 30, Cores: 4,
				Targets: []hw.Class{hw.FPGA},
			}); err != nil {
				t.Fatal(err)
			}
		}
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	if peak, cap := e.Fleet().Peak("dev/fpga"), e.Fleet().Capacity("dev/fpga"); peak > cap {
		t.Fatalf("fpga oversubscribed: %d > %d", peak, cap)
	}
}

func TestCancelMidRun(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The middle task of the chain cancels the job's own context.
	j := chainJob(t, e, "doomed", 9, 1, cancel)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	_, err := j.Wait(context.Background())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if j.State() != Cancelled {
		t.Fatalf("state = %v, want Cancelled", j.State())
	}
	// The aborted job must not strand fleet capacity.
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if e.Fleet().InUse(id) != 0 {
			t.Fatalf("device %s stranded: %d cores held", id, e.Fleet().InUse(id))
		}
	}
}

func TestPerJobTimeout(t *testing.T) {
	e := newTestEngine(t, 1)
	j := chainJob(t, e, "deadline", 4, 1, nil)
	j.SetTimeout(time.Nanosecond)
	if err := e.Submit(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if j.State() != Cancelled {
		t.Fatalf("state = %v", j.State())
	}
}

func TestShutdownDrains(t *testing.T) {
	e, err := New(Config{Workers: 2, Policy: taskrt.MinTime, Fleet: testPlatform()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j := chainJob(t, e, fmt.Sprintf("drain%d", i), 4, 1, nil)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State() != Done {
			t.Fatalf("job %s not drained: %v", j.Name, j.State())
		}
	}
	late := chainJob(t, e, "late", 1, 1, nil)
	if err := e.Submit(ctx, late); err == nil {
		t.Fatal("submit after shutdown accepted")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	e := newTestEngine(t, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := chainJob(t, e, fmt.Sprintf("conc%d", g), 5, 1, nil)
			if err := e.Submit(ctx, j); err != nil {
				errs <- err
				return
			}
			if _, err := j.Wait(ctx); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JobsCompleted != 8 {
		t.Fatalf("completed %d, want 8", st.JobsCompleted)
	}
}

// TestSerialVsConcurrentFleetTime pins down the throughput accounting: one
// worker degenerates to serial submission (session makespan = sum of job
// makespans), a full-width pool overlaps independent jobs on the fleet.
func TestSerialVsConcurrentFleetTime(t *testing.T) {
	run := func(workers int) Stats {
		e := newTestEngine(t, workers)
		ctx := context.Background()
		var jobs []*Job
		for i := 0; i < 4; i++ {
			j := chainJob(t, e, fmt.Sprintf("w%d-job%d", workers, i), 5, 1, nil)
			jobs = append(jobs, j)
			if err := e.Submit(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			if _, err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats()
	}
	serial := run(1)
	conc := run(4)
	if serial.SessionMakespan != serial.TotalJobTime {
		t.Fatalf("serial session %v != total %v", serial.SessionMakespan, serial.TotalJobTime)
	}
	if conc.TotalJobTime != serial.TotalJobTime {
		t.Fatalf("job work differs: %v vs %v", conc.TotalJobTime, serial.TotalJobTime)
	}
	if sp := conc.Speedup(); sp < 2 {
		t.Fatalf("concurrent speedup %.2fx, want >= 2x", sp)
	}
}
