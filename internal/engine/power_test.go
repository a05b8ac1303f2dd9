package engine

import (
	"context"
	"math"
	"testing"

	"legato/internal/energy"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// TestPowerLedgerWiredToFleet checks that the engine's fleet ledger is
// the one its jobs draw watts from: it carries the configured cap,
// charges the idle floor, and its Fail removes both the lost
// device's cores and its idle and granted watts.
func TestPowerLedgerWiredToFleet(t *testing.T) {
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testPlatform(),
		PowerCapW: 100, Governor: power.PackAndThrottle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()

	f := e.Fleet()
	if f.Cap() != 100 {
		t.Fatalf("fleet cap %v, want the configured 100 W", f.Cap())
	}
	// testPlatform idles at 10 + 5 = 15 W.
	if got := f.Draw(); got != 15 {
		t.Fatalf("initial draw = %v, want 15 W idle floor", got)
	}
	if f.Claim("dev/cpu", 2, 30) != power.Granted {
		t.Fatal("claim refused")
	}
	if !f.Fail("dev/cpu") {
		t.Fatal("Fail reported the device already gone")
	}
	// cpu idle (10) and its granted 30 W both gone: only fpga idle remains.
	if got := f.Draw(); got != 5 || f.Capacity("dev/cpu") != 0 {
		t.Fatalf("after Fail: draw %v, cpu capacity %d; want 5 W and 0", got, f.Capacity("dev/cpu"))
	}
}

// TestCapEnforcedUnderDeviceLoss runs a capped multi-job session that
// loses a device mid-traffic and asserts the peak-draw witness across the
// whole session: the modelled fleet draw never exceeded the cap, before or
// after the loss, and every job still completed.
func TestCapEnforcedUnderDeviceLoss(t *testing.T) {
	// testPlatform peak: cpu 60 + fpga 25 = 85 W. A 60 W cap forces the
	// watt ledger to arbitrate: cpu full-width draw is 50 W dynamic + 15 W
	// idle = 65 W > cap, so wide cpu placements must wait for headroom.
	const capW = 60
	e, err := New(Config{Workers: 4, Policy: taskrt.MinTime, Fleet: testPlatform(),
		PowerCapW: capW, Governor: power.PackAndThrottle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()

	ctx := context.Background()
	var jobs []*Job
	failed := false
	for n := 0; n < 6; n++ {
		fn := func() {}
		if n == 0 {
			// Fail the fpga from inside the first job's mid-chain task: the
			// loss lands mid-session while siblings hold draw.
			fn = func() {
				if !failed {
					failed = true
					e.Fleet().Fail("dev/fpga")
				}
			}
		}
		j := chainJob(t, e, "job"+string(rune('a'+n)), 4, 6, fn)
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
	if st.JobsCompleted != 6 {
		t.Fatalf("jobs completed = %d, want 6", st.JobsCompleted)
	}
	if st.PeakDrawW > capW {
		t.Fatalf("peak draw %v W exceeded the %v W cap", st.PeakDrawW, capW)
	}
	if !e.Fleet().Lost("dev/fpga") {
		t.Fatal("mid-session loss never reached the power ledger")
	}
	// After the loss the fpga contributes nothing to the draw.
	draws := make([]energy.Watts, 2) // testPlatform: cpu, fpga
	e.Fleet().Read(draws)
	if draws[1] != 0 {
		t.Fatalf("lost device draw = %v, want 0", draws[1])
	}
	if st.PowerCapW != capW {
		t.Fatalf("stats cap = %v, want %v", st.PowerCapW, capW)
	}
}

// TestInfeasibleCapRejected pins the construction-time guard: a cap the
// idle floor alone exhausts would park every placement forever, so the
// engine must refuse to start instead.
func TestInfeasibleCapRejected(t *testing.T) {
	// testPlatform idles at 15 W.
	for _, capW := range []float64{1, 15} {
		_, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testPlatform(),
			PowerCapW: capW})
		if err == nil {
			t.Fatalf("cap %v W at or below the idle floor was accepted", capW)
		}
	}
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testPlatform(),
		PowerCapW: 16})
	if err != nil {
		t.Fatalf("barely-feasible cap rejected: %v", err)
	}
	_ = e.Shutdown(context.Background())
}

// TestUncappedSessionChargesIdle checks the session energy split: the
// platform energy includes the idle floor over the makespan, on top of the
// dynamic task energy.
func TestUncappedSessionChargesIdle(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx := context.Background()
	j := chainJob(t, e, "idlecheck", 3, 2, nil)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PowerCapW != 0 {
		t.Fatalf("uncapped session reports cap %v", st.PowerCapW)
	}
	if st.PlatformEnergyJ <= st.EnergyJ {
		t.Fatalf("platform energy %v must exceed dynamic task energy %v (idle floor)",
			st.PlatformEnergyJ, st.EnergyJ)
	}
	if st.AvgPowerW <= 0 {
		t.Fatalf("avg power = %v, want > 0", st.AvgPowerW)
	}
}

// soloJob runs one chain job alone and returns its result.
func soloJob(t *testing.T, e *Engine, name string, depth int) *taskrt.Result {
	t.Helper()
	ctx := context.Background()
	j := chainJob(t, e, name, depth, 2, nil)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A device failed on the ledger after the only job finished has no loss
// instant on the fleet clock: it was alive for the whole session, so the
// platform energy keeps charging its idle floor.
func TestLateLedgerFailKeepsPlatformEnergy(t *testing.T) {
	e := newTestEngine(t, 1)
	// Four 1/3 s tasks on the FPGA: 15 W idle + 10 W dynamic over 4/3 s.
	soloJob(t, e, "solo", 4)
	before := e.Stats().PlatformEnergyJ
	if math.Abs(before-100.0/3) > 1e-6 { // task spans round to the nanosecond
		t.Fatalf("platform energy %v J, want 33.33 J", before)
	}
	e.Fleet().Fail("dev/fpga")
	if after := e.Stats().PlatformEnergyJ; after != before {
		t.Fatalf("failing the FPGA after the session moved platform energy %v -> %v J", before, after)
	}
}

// A device the fault plan crashes draws its idle floor up to the crash on
// the fleet clock: the plan's instant on the clock of the job that crossed
// it, shifted by that job's fleet start.
func TestCrashedDeviceIdleStopsAtLoss(t *testing.T) {
	// Seed 13 crashes the FPGA 1.32 s into a job's clock: past the first
	// job's 2/3 s makespan, inside the second job's.
	plan := faults.Plan{MTBF: ft.MTBFModel{hw.FPGA: 1.5}, MaxCrashes: 1, Seed: 13}
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testPlatform(), Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()
	at := e.injector.Events()[0].At
	first := soloJob(t, e, "first", 2)
	second := soloJob(t, e, "second", 8)
	if at <= first.Makespan || at >= second.Makespan {
		t.Fatalf("crash at %v does not fall inside the second job (%v, %v)", at, first.Makespan, second.Makespan)
	}
	st := e.Stats()
	if st.DevicesLost != 1 || st.SessionMakespan != first.Makespan+second.Makespan {
		t.Fatalf("lost %d devices over %v, want 1 over the two serial jobs", st.DevicesLost, st.SessionMakespan)
	}
	// dev/cpu idles at 10 W for the session, dev/fpga at 5 W until the
	// crash, which the second job crossed after the first one's makespan.
	sec := sim.ToSeconds(st.SessionMakespan)
	want := 10*sec + 5*sim.ToSeconds(first.Makespan+at) + st.EnergyJ + st.HedgeWastedJ
	if math.Abs(st.PlatformEnergyJ-want) > 1e-9 {
		t.Fatalf("platform energy %v J, want %v J", st.PlatformEnergyJ, want)
	}
}
