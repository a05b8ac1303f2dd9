package taskrt

import (
	"errors"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/sim"
)

// twoCPUs returns two x86 devices: cpu0 is the MinTime favourite (full
// Xeon), cpu1 a slower fallback of the same class.
func twoCPUs(eng *sim.Engine) []*hw.Device {
	fast := hw.XeonD()
	slow := hw.XeonD()
	slow.GOPS = fast.GOPS / 2
	return []*hw.Device{
		{ID: "cpu0", Spec: fast},
		{ID: "cpu1", Spec: slow},
	}
}

func chain(rt *Runtime, n int, gops float64) error {
	prev := rt.Data("d0", 1<<10)
	for i := 0; i < n; i++ {
		next := rt.Data("d"+string(rune('1'+i)), 1<<10)
		if err := rt.Submit(Task{Name: "t" + string(rune('0'+i)), Gops: gops,
			In: []*Data{prev}, Out: []*Data{next}}); err != nil {
			return err
		}
		prev = next
	}
	return nil
}

// A crash mid-task revokes the execution and re-places it on the surviving
// device; the run completes with the retry counted and the final record on
// the survivor.
func TestCrashRevokesAndRetries(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	if err := rt.Submit(Task{Name: "work", Gops: 100}); err != nil {
		t.Fatal(err)
	}
	// The task runs on cpu0 (fastest); kill cpu0 mid-execution.
	rt.ScheduleFault(time.Millisecond, func() {
		revoked, _ := rt.FailDevice("cpu0")
		if revoked != 1 {
			t.Errorf("revoked = %d, want 1", revoked)
		}
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRetried != 1 {
		t.Fatalf("retries = %d, want 1", res.TasksRetried)
	}
	rec := res.Records[0]
	if rec.Device != "cpu1" {
		t.Fatalf("final execution on %s, want the survivor cpu1", rec.Device)
	}
	if rec.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rec.Attempts)
	}
}

// Losing every compatible device mid-run aborts with ErrDeviceLost.
func TestDeviceLostAborts(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	rt.SetRetryPolicy(5, time.Millisecond)
	if err := rt.Submit(Task{Name: "work", Gops: 100}); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Millisecond, func() { rt.FailDevice("cpu0") })
	rt.ScheduleFault(2*time.Millisecond, func() { rt.FailDevice("cpu1") })
	_, err := rt.Run()
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
}

// A critical task whose every execution is corrupted exhausts its attempt
// budget and aborts with ErrRetriesExhausted.
func TestRetriesExhausted(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	rt.SetRetryPolicy(2, time.Millisecond)
	rt.SetCorruptor(func(Record) bool { return true })
	if err := rt.Submit(Task{Name: "doomed", Gops: 10, Critical: true}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Run()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// A detected corruption (critical task) re-executes; a silent one
// (non-critical) is carried in the record.
func TestSDCDetectionSemantics(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	first := true
	rt.SetCorruptor(func(Record) bool {
		hit := first
		first = false
		return hit
	})
	if err := rt.Submit(Task{Name: "crit", Gops: 10, Critical: true}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCDetected != 1 || res.TasksRetried != 1 {
		t.Fatalf("detected=%d retries=%d, want 1/1", res.SDCDetected, res.TasksRetried)
	}
	if res.Records[0].Corrupted {
		t.Fatal("re-executed critical task still marked corrupted")
	}

	eng2 := sim.NewEngine()
	rt2 := standalone(eng2, twoCPUs(eng2), MinTime)
	first2 := true
	rt2.SetCorruptor(func(Record) bool {
		hit := first2
		first2 = false
		return hit
	})
	if err := rt2.Submit(Task{Name: "plain", Gops: 10}); err != nil {
		t.Fatal(err)
	}
	res2, err := rt2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.SDCSilent != 1 || res2.TasksRetried != 0 {
		t.Fatalf("silent=%d retries=%d, want 1/0", res2.SDCSilent, res2.TasksRetried)
	}
	if !res2.Records[0].Corrupted {
		t.Fatal("silently corrupted record not marked")
	}
}

// Without checkpoints, a late crash invalidates every completed task whose
// output lived on the lost device and is still needed; with checkpoints,
// only the un-persisted tail re-executes.
func TestCheckpointLimitsRestores(t *testing.T) {
	run := func(ckptEvery int) (*Result, error) {
		eng := sim.NewEngine()
		devs := twoCPUs(eng)
		rt := standalone(eng, devs, MinTime)
		rt.SetRetryPolicy(3, time.Millisecond)
		if ckptEvery > 0 {
			rt.SetCheckpoint(ckptEvery,
				func(int64) sim.Time { return 0 }, // commits instantly
				func(int64) sim.Time { return time.Millisecond })
		}
		if err := chain(rt, 5, 50); err != nil {
			return nil, err
		}
		// cpu0 runs the whole chain at 2s/task (Gops 50 over a 25 GOPS/core
		// Xeon lane): completions land at 2s, 4s, ... Crash at 4.5s — t0 and
		// t1 are done-but-unpersisted, t2 is in flight. Without checkpoints
		// the transitive invalidation drags t0 and t1 back in (their outputs
		// died with cpu0); with an instant per-task checkpoint both are
		// persisted and only the revoked t2 re-executes.
		rt.ScheduleFault(4500*time.Millisecond, func() { rt.FailDevice("cpu0") })
		return rt.Run()
	}

	bare, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.TasksRestored == 0 {
		t.Fatalf("uncheckpointed run restored nothing: %+v", bare)
	}
	if ckpt.Checkpoints == 0 {
		t.Fatalf("checkpointed run committed nothing: %+v", ckpt)
	}
	if ckpt.TasksRestored >= bare.TasksRestored {
		t.Fatalf("checkpoints did not reduce restores: %d (ckpt) vs %d (bare)",
			ckpt.TasksRestored, bare.TasksRestored)
	}
	if ckpt.Makespan >= bare.Makespan {
		t.Fatalf("checkpointed recovery not faster: %v vs %v", ckpt.Makespan, bare.Makespan)
	}
}

// A fault scheduled beyond the graph's lifetime is cancelled when the last
// task completes: the run ends at its natural makespan and the device
// stays alive.
func TestFaultAfterCompletionCancelled(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	if err := chain(rt, 3, 10); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Hour, func() { rt.FailDevice("cpu0") })
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= time.Hour {
		t.Fatalf("pending fault stretched the run to %v", res.Makespan)
	}
	if rt.state[0].lost {
		t.Fatal("device failed after the graph completed")
	}
	if res.TasksRestored != 0 || res.TasksRetried != 0 {
		t.Fatalf("phantom recovery work: %+v", res)
	}
}

// The sink sees a crash re-queue with its reason, one DeviceLost carrying
// the counts, and each committed checkpoint as a Begin/Commit pair.
func TestResilienceSink(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := standalone(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	rt.SetCheckpoint(1, func(int64) sim.Time { return 0 }, nil)
	var retried, lost, begins, commits int
	var reason, lostDetail string
	rt.SetSink(func(e obs.Event) {
		switch e.Kind {
		case obs.TaskRetried:
			retried++
			reason = e.Detail
		case obs.DeviceLost:
			lost++
			lostDetail = e.Detail
		case obs.CheckpointBegin:
			begins++
		case obs.CheckpointCommit:
			commits++
		}
	})
	if err := chain(rt, 3, 50); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Millisecond, func() { rt.FailDevice("cpu0") })
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if retried == 0 || reason != "crash" {
		t.Fatalf("retried events: count=%d reason=%q", retried, reason)
	}
	if lost != 1 || lostDetail != "revoked=1 restored=0" {
		t.Fatalf("device-lost events: count=%d detail=%q", lost, lostDetail)
	}
	if commits == 0 || begins != commits {
		t.Fatalf("checkpoint events: %d begins, %d commits", begins, commits)
	}
}
