package faults

import (
	"sync"
	"testing"

	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/power"
	"legato/internal/sim"
)

func refFleet(t *testing.T) []*hw.Device {
	t.Helper()
	eng := sim.NewEngine()
	return []*hw.Device{
		hw.NewDevice(eng, "cpu0", hw.XeonD()),
		hw.NewDevice(eng, "cpu1", hw.XeonD()),
		hw.NewDevice(eng, "fpga0", hw.VirtexFPGA()),
		hw.NewDevice(eng, "fpga1", hw.KintexFPGA()),
	}
}

// The sampled timeline is a pure function of (plan, device set): same seed,
// same events; a different seed moves them.
func TestScheduleDeterministic(t *testing.T) {
	devs := refFleet(t)
	plan := Plan{MTBF: ft.MTBFModel{hw.CPUx86: 100, hw.FPGA: 50}, MaxCrashes: 4, Seed: 42}
	a := plan.Schedule(devs)
	b := plan.Schedule(devs)
	if len(a) == 0 {
		t.Fatal("plan with MTBF for present classes sampled no events")
	}
	if len(a) != len(b) {
		t.Fatalf("same plan, different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	plan.Seed = 43
	c := plan.Schedule(devs)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("changing the seed left the timeline unchanged")
	}
}

// MaxCrashes truncates to the earliest crashes; the default bound is one.
func TestMaxCrashesBound(t *testing.T) {
	devs := refFleet(t)
	plan := Plan{MTBF: ft.MTBFModel{hw.CPUx86: 100, hw.FPGA: 100}, Seed: 9}
	events := plan.Schedule(devs)
	crashes := 0
	for _, ev := range events {
		if ev.Kind == Crash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("default plan sampled %d crashes, want 1", crashes)
	}

	plan.MaxCrashes = 2
	events = plan.Schedule(devs)
	var kept []Event
	for _, ev := range events {
		if ev.Kind == Crash {
			kept = append(kept, ev)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("MaxCrashes=2 kept %d crashes", len(kept))
	}
	// The survivors must be the two earliest of the full four-device sample.
	all := Plan{MTBF: plan.MTBF, MaxCrashes: 4, Seed: plan.Seed}.Schedule(devs)
	var times []sim.Time
	for _, ev := range all {
		if ev.Kind == Crash {
			times = append(times, ev.At)
		}
	}
	for _, ev := range kept {
		later := 0
		for _, at := range times {
			if at < ev.At {
				later++
			}
		}
		if later >= 2 {
			t.Fatalf("kept crash at %v is not among the two earliest %v", ev.At, times)
		}
	}
}

// A class absent from the MTBF model never crashes, and the zero plan is
// disabled outright.
func TestClassImmortality(t *testing.T) {
	devs := refFleet(t)
	plan := Plan{MTBF: ft.MTBFModel{hw.GPU: 1}, MaxCrashes: 10, Seed: 3}
	if events := plan.Schedule(devs); len(events) != 0 {
		t.Fatalf("fleet without GPUs sampled %d GPU faults", len(events))
	}
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if !plan.Enabled() {
		t.Fatal("plan with an MTBF model reports disabled")
	}
}

// Degrade events carry the shrunk capacity, clamped by DegradeTo.
func TestDegradeCapacity(t *testing.T) {
	devs := refFleet(t)
	plan := Plan{DegradeMTBF: ft.MTBFModel{hw.CPUx86: 100}, DegradeTo: 0.25, Seed: 5}
	events := plan.Schedule(devs)
	if len(events) == 0 {
		t.Fatal("no degrade events sampled")
	}
	cores := hw.XeonD().Cores
	for _, ev := range events {
		if ev.Kind != Degrade {
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
		if want := cores / 4; ev.Capacity != want {
			t.Fatalf("degraded capacity %d, want %d", ev.Capacity, want)
		}
	}
}

// The injector applies each global fault exactly once no matter how many
// jobs cross the event time, and records it in the registry.
func TestInjectorIdempotent(t *testing.T) {
	devs := refFleet(t)
	fleet := power.NewLedger(0, devs, power.RaceToIdle)
	reg := monitor.NewRegistry()
	plan := Plan{MTBF: ft.MTBFModel{hw.CPUx86: 100}, Seed: 1}
	in := NewInjector(plan, fleet, devs, reg)

	first := in.Crash("cpu0")
	second := in.Crash("cpu0")
	if !first || second {
		t.Fatalf("crash application: first=%v second=%v, want true/false", first, second)
	}
	if !fleet.Lost("cpu0") || fleet.Capacity("cpu0") != 0 {
		t.Fatalf("crash left cpu0 lost=%v with capacity %d", fleet.Lost("cpu0"), fleet.Capacity("cpu0"))
	}
	if !in.Lost("cpu0") || in.Lost("cpu1") {
		t.Fatal("lost bookkeeping wrong")
	}
	if in.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", in.Crashes())
	}
	if reg.ScopeSnapshot("faults")["device-crashes"] != 1 {
		t.Fatalf("registry crashes = %v", reg.ScopeSnapshot("faults"))
	}

	ev := Event{Device: "cpu1", Kind: Degrade, Capacity: 8}
	if !in.Degrade(ev) || in.Degrade(ev) {
		t.Fatal("degrade not exactly-once")
	}
	if fleet.Capacity("cpu1") != 8 {
		t.Fatalf("cpu1 capacity = %d after degrade, want 8", fleet.Capacity("cpu1"))
	}
	// Degrading an already-lost device is a no-op.
	if in.Degrade(Event{Device: "cpu0", Kind: Degrade, Capacity: 4}) {
		t.Fatal("degrade applied to a crashed device")
	}
}

// Many jobs cross one crash at once: exactly one Crash call removes the
// device, the injector counts one crash, the device's idle and granted
// watts leave the fleet draw once, and late releases of its grants (jobs
// revoking on their own clocks) change nothing. Run with -race.
func TestCrashExactlyOnce(t *testing.T) {
	devs := refFleet(t)
	fleet := power.NewLedger(0, devs, power.PackAndThrottle)
	in := NewInjector(Plan{MTBF: ft.MTBFModel{hw.CPUx86: 100}, Seed: 1}, fleet, devs, nil)
	// Each of the jobs holds one core and 2 W on cpu0; a bystander holds
	// 20 W on cpu1.
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if fleet.Claim("cpu0", 1, 2) != power.Granted {
			t.Fatal("claim refused on an uncapped fleet")
		}
	}
	if fleet.Claim("cpu1", 2, 20) != power.Granted {
		t.Fatal("claim refused on an uncapped fleet")
	}
	idle := fleet.IdleWatts()
	want := fleet.Draw() - devs[0].Spec.IdleWatts - 2*jobs

	var wg sync.WaitGroup
	wins := make(chan bool, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			won := in.Crash("cpu0")
			// Every job revokes its own grant on the lost device.
			fleet.Release("cpu0", 1, 2)
			wins <- won
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 || in.Crashes() != 1 {
		t.Fatalf("%d callers won the crash, injector counts %d; want exactly one", won, in.Crashes())
	}
	if got := fleet.Draw(); got != want {
		t.Fatalf("draw after the crash = %v, want %v (cpu0 idle and grant gone once)", got, want)
	}
	if got := fleet.IdleWatts(); got != idle-devs[0].Spec.IdleWatts {
		t.Fatalf("idle draw = %v, want %v", got, idle-devs[0].Spec.IdleWatts)
	}
	if fleet.DrawOf("cpu0") != 0 || fleet.Capacity("cpu0") != 0 {
		t.Fatalf("lost cpu0 still charged %v W with %d cores", fleet.DrawOf("cpu0"), fleet.Capacity("cpu0"))
	}
	fleet.Release("cpu1", 2, 20)
	if got := fleet.Draw(); got != fleet.IdleWatts() {
		t.Fatalf("draw = %v after every grant returned, want the %v W idle floor", got, fleet.IdleWatts())
	}
}

// Sampler streams are deterministic per (seed, stream) and independent
// across streams.
func TestSamplerDeterministic(t *testing.T) {
	devs := refFleet(t)
	fleet := power.NewLedger(0, devs, power.RaceToIdle)
	plan := Plan{SDC: ft.SDCModel{hw.FPGA: 0.5}, Seed: 11}
	mk := func() *Injector { return NewInjector(plan, fleet, devs, nil) }

	a, b := mk().Sampler(3), mk().Sampler(3)
	if a == nil || b == nil {
		t.Fatal("sampler nil despite SDC model")
	}
	for i := 0; i < 64; i++ {
		if a(hw.FPGA, 0) != b(hw.FPGA, 0) {
			t.Fatalf("stream diverged at draw %d", i)
		}
		if a(hw.CPUx86, 0) || b(hw.CPUx86, 0) {
			t.Fatal("class absent from SDC model reported corruption")
		}
	}
	if s := mk().Sampler(4); s == nil {
		t.Fatal("second stream nil")
	}
	// A crash-only plan still arms the sampler: the extra probability
	// (undervolt SDC risk) must be able to fire without a class SDC model.
	noSDC := Plan{MTBF: ft.MTBFModel{hw.CPUx86: 1}, Seed: 11}
	s := NewInjector(noSDC, fleet, devs, nil).Sampler(0)
	if s == nil {
		t.Fatal("sampler nil for a crash-only plan")
	}
	if s(hw.CPUx86, 0) {
		t.Fatal("zero-extra draw fired without an SDC model")
	}
	if !s(hw.CPUx86, 1) {
		t.Fatal("extra=1 draw did not fire")
	}
}
