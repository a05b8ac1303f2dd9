package hw

import (
	"math"
	"testing"

	"legato/internal/sim"
)

// draw is a device's modelled power with n cores busy at DVFS state i:
// the idle floor plus the spec's dynamic watts.
func draw(s Spec, n, i int) float64 { return s.IdleWatts + s.DynamicWatts(n, i) }

func TestDevicePowerModel(t *testing.T) {
	s := XeonD()
	if p := draw(s, 0, 0); p != 25 {
		t.Fatalf("idle power: got %v want 25", p)
	}
	if p := draw(s, 16, 0); math.Abs(p-90) > 1e-9 {
		t.Fatalf("full-load power: got %v want 90", p)
	}
}

func TestDevicePartialUtilization(t *testing.T) {
	// Half the cores busy: idle + half the dynamic range, 25 + 65/2.
	if p := draw(XeonD(), 8, 0); math.Abs(p-57.5) > 1e-9 {
		t.Fatalf("half-load power: got %v want 57.5", p)
	}
}

func TestDeviceDVFSScaling(t *testing.T) {
	s := XeonD()
	nominalTime := s.ExecTime(100, 16, 0)
	lowTime := s.ExecTime(100, 16, 2) // low: 0.8 GHz vs 2.1 GHz nominal
	ratio := float64(lowTime) / float64(nominalTime)
	if math.Abs(ratio-2.1/0.8) > 1e-6 {
		t.Fatalf("DVFS slowdown: got ratio %v want %v", ratio, 2.1/0.8)
	}
	// Dynamic power scales as f·V²: at (0.8/2.1)·(0.75)² ≈ 0.214 of nominal.
	scale := (0.8 / 2.1) * 0.75 * 0.75
	want := 25 + (90-25)*scale
	if p := draw(s, 16, 2); math.Abs(p-want) > 1e-9 {
		t.Fatalf("DVFS power: got %v want %v", p, want)
	}
}

func TestExecTimeScalesWithCores(t *testing.T) {
	s := XeonD()
	t1 := s.ExecTime(100, 1, 0)
	t16 := s.ExecTime(100, 16, 0)
	if t1 != 16*t16 {
		t.Fatalf("core scaling: 1-core %v, 16-core %v", t1, t16)
	}
}

// TestEnergyForMatchesMeterIntegration: the dynamic-energy estimate equals
// the full draw integrated over the run minus the idle floor, and both
// equal the figure worked by hand.
func TestEnergyForMatchesMeterIntegration(t *testing.T) {
	s := XeonD()
	for _, c := range []struct {
		state int
		want  float64
	}{
		// 50 GOP on 16 cores: 0.125 s at 65 W.
		{0, 8.125},
		// 2.1/0.8 times longer at (0.8/2.1)·0.75² of 65 W: 65·0.5625·0.125.
		{2, 4.5703125},
	} {
		estimate := s.EnergyFor(50, 16, c.state)
		secs := sim.ToSeconds(s.ExecTime(50, 16, c.state))
		integrated := draw(s, 16, c.state)*secs - s.IdleWatts*secs
		if math.Abs(estimate-c.want) > 1e-9 || math.Abs(integrated-c.want) > 1e-9 {
			t.Fatalf("state %d: estimate %v, integrated %v, want %v", c.state, estimate, integrated, c.want)
		}
	}
}

func TestRECSBoxTopology(t *testing.T) {
	b, err := StandardCloudBox("recs0")
	if err != nil {
		t.Fatalf("standard box: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n := b.CountMicroservers(); n != 15 {
		t.Fatalf("standard box population: got %d want 15", n)
	}
	if got := len(b.Microservers()); got != 15 {
		t.Fatalf("microserver list: %d", got)
	}
	// 3 Xeon-D (25 W) + ARMv8 (6) + Virtex (8) + Kintex (4) + GTX1080 (12)
	// + 4 Jetson (5) + 4 Apalis (2).
	if p := b.IdlePower(); p != 133 {
		t.Fatalf("idle chassis power: got %v want 133", p)
	}
}

func TestRECSBoxCarrierCompatibility(t *testing.T) {
	b := NewRECSBox("r")
	lp, _ := b.AddCarrier(LowPowerCarrier)
	if _, err := b.Populate(lp, XeonD()); err == nil {
		t.Fatal("x86 COM Express must not fit a low-power carrier")
	}
	if _, err := b.Populate(lp, JetsonTX2()); err != nil {
		t.Fatalf("Jetson should fit a low-power carrier: %v", err)
	}
	hp, _ := b.AddCarrier(HighPerfCarrier)
	if _, err := b.Populate(hp, JetsonTX2()); err == nil {
		t.Fatal("GPU SoC must not fit a high-performance carrier")
	}
	if _, err := b.Populate(hp, ARMv8Server()); err != nil {
		t.Fatalf("ARMv8 should fit a high-performance carrier: %v", err)
	}
}

func TestRECSBoxCapacityLimits(t *testing.T) {
	b := NewRECSBox("r")
	for i := 0; i < MaxCarriers; i++ {
		if _, err := b.AddCarrier(LowPowerCarrier); err != nil {
			t.Fatalf("carrier %d: %v", i, err)
		}
	}
	if _, err := b.AddCarrier(LowPowerCarrier); err == nil {
		t.Fatal("backplane over-population accepted")
	}
	// 15 low-power carriers could hold 240 sites, but the chassis caps at 144.
	count := 0
	for _, c := range b.Carriers {
		for s := 0; s < c.Class.Sites(); s++ {
			if _, err := b.Populate(c, ApalisARM()); err != nil {
				if count != MaxMicroservers {
					t.Fatalf("population stopped at %d: %v", count, err)
				}
				return
			}
			count++
		}
	}
	t.Fatalf("chassis accepted %d microservers without hitting the %d cap", count, MaxMicroservers)
}

func TestCarrierFull(t *testing.T) {
	b := NewRECSBox("r")
	hp, _ := b.AddCarrier(HighPerfCarrier)
	for i := 0; i < 3; i++ {
		if _, err := b.Populate(hp, XeonD()); err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	if _, err := b.Populate(hp, XeonD()); err == nil {
		t.Fatal("4th module on a 3-site carrier accepted")
	}
}

func TestEdgeServerFig9(t *testing.T) {
	s, err := MirrorEdgeCPUGPUFPGA("edge0")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Modules) != 3 {
		t.Fatalf("modules: %d", len(s.Modules))
	}
	if s.ByClass(FPGA) == nil || s.ByClass(GPU) == nil || s.ByClass(CPUARM) == nil {
		t.Fatal("expected CPU+GPU+FPGA composition")
	}
	if _, err := s.AddModule(JetsonTX2()); err == nil {
		t.Fatal("edge enclosure accepted a 4th module")
	}
	idle := 0.0
	for _, m := range s.Modules {
		idle += m.Device.Spec.IdleWatts
	}
	if idle != 6+5+2 {
		t.Fatalf("edge idle power: got %v want 13", idle)
	}
}

func TestWorkstationPowerEnvelope(t *testing.T) {
	w := NewMirrorWorkstation("ws")
	// Full load: host + both GPUs at peak.
	p := w.Host.Spec.PeakWatts
	for _, g := range w.GPUs {
		p += g.Spec.PeakWatts
	}
	// Paper Sec. VI: ~400 W for the detection pipeline on this box.
	if p < 350 || p > 450 {
		t.Fatalf("workstation full-load power %v W outside the 400 W envelope", p)
	}
}

func TestClassAndCarrierStrings(t *testing.T) {
	for _, c := range []Class{CPUx86, CPUARM, GPU, FPGA, DFE} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, c := range []CarrierClass{LowPowerCarrier, HighPerfCarrier, PCIeExpansionCarrier} {
		if c.String() == "" || c.Sites() == 0 {
			t.Fatalf("carrier class %v misconfigured", c)
		}
	}
}
