package legato

// Tests for the job energy report: each device draws its idle floor while
// it is alive on the job's clock, and the task model prices everything
// else.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/sim"
)

// runChain runs a job of `depth` dependent 40-Gop tasks at the given
// undervolt level and returns its report.
func runChain(t *testing.T, sys *System, name string, depth, undervolt int) *Report {
	t.Helper()
	job, err := sys.NewJob(name)
	if err != nil {
		t.Fatal(err)
	}
	prev := job.Data("d0", 1<<10)
	for i := 0; i < depth; i++ {
		next := job.Data(fmt.Sprintf("d%d", i+1), 1<<10)
		if err := job.Task(fmt.Sprintf("t%d", i)).Gops(40).Undervolt(undervolt).
			In(prev).Out(next).Submit(); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// idleJ is the fleet's idle floor over d of every device but skip.
func idleJ(sys *System, d sim.Time, skip string) float64 {
	j := 0.0
	for _, dev := range sys.Devices() {
		if dev.ID != skip {
			j += dev.Spec.IdleWatts * sim.ToSeconds(d)
		}
	}
	return j
}

// onDevice sums the energy of the records committed on a device.
func onDevice(rep *Report, id string) float64 {
	j := 0.0
	for _, rec := range rep.Records {
		if rec.Device == id {
			j += rec.EnergyJ
		}
	}
	return j
}

// An undervolted job's platform energy is the idle floor over its makespan
// plus its task energy, which the undervolt level shrinks quadratically.
func TestUndervoltedJobEnergy(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	base := runChain(t, sys, "guardband", 4, 0)
	uv := runChain(t, sys, "undervolted", 4, 2)
	for _, rep := range []*Report{base, uv} {
		if want := idleJ(sys, rep.Makespan, "") + rep.TaskEnergyJ + rep.HedgeWastedJ; rep.PlatformEnergyJ != want {
			t.Fatalf("platform energy %v J, want idle + task + hedge = %v J", rep.PlatformEnergyJ, want)
		}
	}
	if uv.Makespan != base.Makespan {
		t.Fatalf("undervolting changed the makespan: %v vs %v", uv.Makespan, base.Makespan)
	}
	// Level 2 runs at 0.9 V of the operating point: 0.81 of the dynamic energy.
	if scale := uv.TaskEnergyJ / base.TaskEnergyJ; math.Abs(scale-0.81) > 1e-9 {
		t.Fatalf("undervolted task energy is %v of the guardband's, want 0.81", scale)
	}
	if uv.PlatformEnergyJ >= base.PlatformEnergyJ {
		t.Fatalf("undervolted platform energy %v J not below the guardband's %v J", uv.PlatformEnergyJ, base.PlatformEnergyJ)
	}
}

// A device the fault plan crashes mid-job draws its idle floor on that
// job's clock only up to the crash; a job started after the crash starts
// without it, silently, and never charges it.
func TestLostDeviceIdleEnergy(t *testing.T) {
	plan := faults.Plan{MTBF: ft.MTBFModel{hw.CPUARM: 0.5}, MaxCrashes: 1, Seed: 1}
	sys, err := NewSystem(WithPolicy(MinTime), WithFaults(plan), WithWorkers(1), WithEventLog())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	ev := plan.Schedule(sys.Devices())[0]
	var lost *hw.Device
	for _, d := range sys.Devices() {
		if d.ID == ev.Device {
			lost = d
		}
	}

	during := runChain(t, sys, "during", 8, 0)
	if ev.At <= 0 || ev.At >= during.Makespan {
		t.Fatalf("crash of %s at %v outside the first job's %v makespan", ev.Device, ev.At, during.Makespan)
	}
	wantDev := lost.Spec.IdleWatts*sim.ToSeconds(ev.At) + onDevice(during, ev.Device)
	if got := during.Energy.Get(ev.Device); math.Abs(got-wantDev) > 1e-9 {
		t.Fatalf("%s energy %v J, want idle up to the crash + its tasks = %v J", ev.Device, got, wantDev)
	}
	want := idleJ(sys, during.Makespan, ev.Device) + lost.Spec.IdleWatts*sim.ToSeconds(ev.At) +
		during.TaskEnergyJ + during.HedgeWastedJ
	if math.Abs(during.PlatformEnergyJ-want) > 1e-9 {
		t.Fatalf("platform energy %v J, want %v J", during.PlatformEnergyJ, want)
	}

	after := runChain(t, sys, "after", 8, 0)
	if got := after.Energy.Get(ev.Device); got != 0 {
		t.Fatalf("job started after the crash charges %v J to %s", got, ev.Device)
	}
	want = idleJ(sys, after.Makespan, ev.Device) + after.TaskEnergyJ + after.HedgeWastedJ
	if math.Abs(after.PlatformEnergyJ-want) > 1e-9 {
		t.Fatalf("platform energy %v J, want %v J", after.PlatformEnergyJ, want)
	}
	losses := map[string]int{}
	for _, e := range sys.EventLog() {
		if e.Kind == EvDeviceLost {
			losses[e.Job]++
		}
	}
	if losses["during"] != 1 || losses["after"] != 0 {
		t.Fatalf("DeviceLost events per job = %v, want one in the crossing job and none after", losses)
	}
}
