package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// Two FPGA-only jobs contend for the single 4-region FPGA; while one holds
// it the other parks on admission. Failing the FPGA mid-session must wake
// the parked job — which then has no compatible device left and fails with
// ErrDeviceLost instead of hanging the session. Run with -race: this is the
// lost-wakeup regression test.
func TestParkedJobWakesOnDeviceLoss(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	fpgaJob := func(name string) *Job {
		j, err := e.NewJob(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := j.Runtime()
		rt.SetRetryPolicy(3, time.Millisecond)
		if err := rt.Submit(taskrt.Task{
			Name: name + "/t0", Gops: 1000, Cores: 4,
			Targets: []hw.Class{hw.FPGA},
		}); err != nil {
			t.Fatal(err)
		}
		// The fault rides the job's own virtual clock (runtimes are
		// goroutine-confined): whichever job wins the FPGA advances to 1ms
		// mid-task and pulls the device out fleet-wide; the loser is parked
		// at virtual 0 with its clock frozen, so only the Changed() wakeup
		// can unblock it.
		rt.ScheduleFault(time.Millisecond, func() {
			e.Fleet().Fail("dev/fpga")
			rt.FailDevice("dev/fpga")
		})
		return j
	}
	a, b := fpgaJob("holder"), fpgaJob("parked")
	if err := e.Submit(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(ctx, b); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, j := range []*Job{a, b} {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			_, errs[i] = j.Wait(ctx)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, taskrt.ErrDeviceLost) {
			t.Fatalf("job %d: err = %v, want ErrDeviceLost", i, err)
		}
	}
	if ctx.Err() != nil {
		t.Fatal("session timed out: parked job never woke on device loss")
	}
}

// End-to-end Config.Faults wiring: a plan whose single crash lands at the
// session start removes the FPGA fleet-wide; every job re-places on the CPU,
// completes, and the loss shows up in Stats and the registry.
func TestEngineFaultPlanEndToEnd(t *testing.T) {
	reg := monitor.NewRegistry()
	// MTBF of one microsecond: the sampled crash lands at the very start of
	// the session, before any placement settles.
	plan := faults.Plan{MTBF: ft.MTBFModel{hw.FPGA: 1e-6}, MaxCrashes: 1, Seed: 1}
	e, err := New(Config{Workers: 4, Policy: taskrt.MinTime, Fleet: testPlatform(),
		Registry: reg, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	if evs := e.Faults().Events(); len(evs) != 1 || evs[0].Device != "dev/fpga" {
		t.Fatalf("sampled events = %+v, want one dev/fpga crash", evs)
	}

	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := chainJob(t, e, fmt.Sprintf("job%d", i), 4, 2, nil)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s did not survive the device loss: %v", j.Name, err)
		}
	}
	st := e.Stats()
	if st.JobsCompleted != 4 {
		t.Fatalf("jobs completed = %d, want 4", st.JobsCompleted)
	}
	if st.DevicesLost != 1 {
		t.Fatalf("devices lost = %d, want 1", st.DevicesLost)
	}
	if !e.Fleet().Lost("dev/fpga") {
		t.Fatal("fleet does not record the FPGA loss")
	}
	if e.Fleet().Peak("dev/cpu") > e.Fleet().Capacity("dev/cpu") {
		t.Fatal("CPU oversubscribed while absorbing the FPGA's work")
	}
	if reg.ScopeSnapshot("faults")["device-crashes"] != 1 {
		t.Fatalf("registry faults scope: %+v", reg.ScopeSnapshot("faults"))
	}
}

// tailTestPlatform is the tail-tolerance pair: dev/fast is the MinTime
// favourite (a 100-Gop 1-core task takes 4 s), dev/backup a slower device
// of a different class (5.56 s) for replicas to land on.
func tailTestPlatform() []*hw.Device {
	return []*hw.Device{
		{ID: "dev/fast", Spec: hw.XeonD()},
		{ID: "dev/backup", Spec: hw.ARMv8Server()},
	}
}

// End-to-end degrade → straggler → hedge: a fault plan silently slows the
// favourite device 4× (capacity untouched, so placement keeps choosing
// it), the watchdog flags the stretch at 1.5× the expected span, replicas
// launch on the other class and win, and the whole path shows up in Stats
// and the "tail" registry scope.
func TestDegradeStragglerHedgeEndToEnd(t *testing.T) {
	reg := monitor.NewRegistry()
	plan := faults.Plan{
		DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 1e-6},
		DegradeTo:       1.0,
		DegradeSlowdown: 4.0,
		Seed:            1,
	}
	e, err := New(Config{Workers: 2, Policy: taskrt.MinTime, Fleet: tailTestPlatform(),
		Registry: reg, Faults: &plan, Hedge: taskrt.HedgePolicy{Multiplier: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	evs := e.Faults().Events()
	if len(evs) != 1 || evs[0].Kind != faults.Degrade || evs[0].Device != "dev/fast" || evs[0].Slowdown != 4 {
		t.Fatalf("sampled events = %+v, want one silent 4x degrade of dev/fast", evs)
	}

	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := e.NewJob(fmt.Sprintf("job%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Runtime().Submit(taskrt.Task{
			Name: fmt.Sprintf("job%d/t0", i), Gops: 100, Cores: 1,
		}); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %s did not survive the silent degrade: %v", j.Name, err)
		}
		rec := res.Records[0]
		if rec.Device != "dev/backup" || !rec.Hedged {
			t.Fatalf("job %s record device=%s hedged=%v, want the winning replica",
				j.Name, rec.Device, rec.Hedged)
		}
	}
	st := e.Stats()
	if st.StragglersDetected != 2 || st.HedgesLaunched != 2 || st.HedgesWon != 2 {
		t.Fatalf("stragglers=%d launched=%d won=%d, want 2/2/2",
			st.StragglersDetected, st.HedgesLaunched, st.HedgesWon)
	}
	if st.HedgeWastedJ <= 0 {
		t.Fatalf("hedge waste = %v J, want the cancelled primaries' energy", st.HedgeWastedJ)
	}
	if st.TasksRetried != 0 {
		t.Fatalf("retries = %d, want 0 (hedging, not crash recovery)", st.TasksRetried)
	}
	tail := reg.ScopeSnapshot("tail")
	if tail["stragglers-detected"] != 2 || tail["hedges-won"] != 2 || tail["hedge-wasted-J"] <= 0 {
		t.Fatalf("tail scope = %+v", tail)
	}
	if reg.ScopeSnapshot("device/dev/backup")["hedges-hosted"] != 2 {
		t.Fatalf("backup device scope = %+v", reg.ScopeSnapshot("device/dev/backup"))
	}
}

// A hedge racing a mid-flight fleet-wide loss of its own device: the
// replica is cancelled (its burned energy counted as waste), the
// straggling primary keeps running and completes, and the job survives
// without a retry.
func TestHedgeRacesHedgeDeviceLoss(t *testing.T) {
	reg := monitor.NewRegistry()
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: tailTestPlatform(),
		Registry: reg, Hedge: taskrt.HedgePolicy{Multiplier: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	ctx := context.Background()

	j, err := e.NewJob("race")
	if err != nil {
		t.Fatal(err)
	}
	rt := j.Runtime()
	// Silent 4x slowdown of the favourite, invisible to placement: the
	// primary (launched at 0, expected 4 s) now finishes at ~16 s, and the
	// watchdog hedges onto dev/backup at 6 s (replica done ~11.56 s).
	rt.DegradeDevice("dev/fast", 4)
	// At 8 s — replica mid-flight — the backup dies fleet-wide, exactly
	// as the engine replays a crash event: shared ledger first, then the
	// job mirror.
	rt.ScheduleFault(8*time.Second, func() {
		e.Fleet().Fail("dev/backup")
		rt.FailDevice("dev/backup")
	})
	if err := rt.Submit(taskrt.Task{Name: "race/t0", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not survive losing its hedge's device: %v", err)
	}
	rec := res.Records[0]
	if rec.Device != "dev/fast" || rec.Hedged {
		t.Fatalf("record device=%s hedged=%v, want the surviving primary", rec.Device, rec.Hedged)
	}
	if rec.End != sim.Time(16*time.Second) {
		t.Fatalf("End = %v, want the degraded primary's full 16 s", rec.End)
	}
	st := e.Stats()
	if st.HedgesLaunched != 1 || st.HedgesWon != 0 {
		t.Fatalf("launched=%d won=%d, want the cancelled replica counted", st.HedgesLaunched, st.HedgesWon)
	}
	if st.HedgeWastedJ <= 0 {
		t.Fatal("hedge waste not accounted for the revoked replica")
	}
	// The revoked replica's waste reaches the registry and the trace
	// through its HedgeCancelled event, not only the session counters.
	if got := reg.Get("tail", "hedge-wasted-J"); got != st.HedgeWastedJ {
		t.Fatalf("registry tail/hedge-wasted-J = %v, Stats.HedgeWastedJ = %v", got, st.HedgeWastedJ)
	}
	lost := false
	for _, sp := range j.Spans() {
		lost = lost || sp.Name == "race/t0 hedge lost on dev/backup"
	}
	if !lost {
		t.Fatal("no 'race/t0 hedge lost on dev/backup' span for the revoked replica")
	}
	if st.TasksRetried != 0 {
		t.Fatalf("retries = %d, want 0 (the primary never stopped)", st.TasksRetried)
	}
	if !e.Fleet().Lost("dev/backup") {
		t.Fatal("fleet does not record the backup loss")
	}
}

// The reference fleet is read-only: a capped, throttled, faulty and hedged
// multi-worker session leaves every device exactly as it started, its spec's
// DVFS table included. Under -race this also pins that concurrent jobs only
// read the shared devices.
func TestSessionLeavesFleetUntouched(t *testing.T) {
	fleet := []*hw.Device{
		{ID: "x86", Spec: hw.XeonD()},
		{ID: "arm0", Spec: hw.ARMv8Server()},
		{ID: "arm1", Spec: hw.ARMv8Server()},
		{ID: "gpu", Spec: hw.JetsonTX2()},
	}
	before := make([]hw.Device, len(fleet))
	for i, d := range fleet {
		before[i] = *d
		before[i].Spec.States = slices.Clone(d.Spec.States)
	}

	plan := faults.Plan{
		MTBF: ft.MTBFModel{hw.CPUARM: 2}, MaxCrashes: 1,
		DegradeMTBF: ft.MTBFModel{hw.CPUx86: 0.5}, DegradeTo: 0.5, DegradeSlowdown: 4,
		Seed: 1,
	}
	e, err := New(Config{Workers: 4, Policy: taskrt.MinTime, Fleet: fleet,
		PowerCapW: 0.35 * float64(power.FleetPeakWatts(fleet)), Governor: power.PackAndThrottle,
		Faults: &plan, Hedge: taskrt.HedgePolicy{Multiplier: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j := wideJob(t, e, fmt.Sprintf("job%d", i), 4, 6)
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
	st := e.Stats()
	if st.GovernorRescales == 0 || st.DevicesLost != 1 || st.HedgesLaunched == 0 {
		t.Fatalf("session did not throttle (%d rescales), crash (%d lost) and hedge (%d launched)",
			st.GovernorRescales, st.DevicesLost, st.HedgesLaunched)
	}
	for i, d := range fleet {
		if !reflect.DeepEqual(*d, before[i]) {
			t.Fatalf("the session wrote device %s:\nbefore %+v\nafter  %+v", d.ID, before[i], *d)
		}
	}
}
