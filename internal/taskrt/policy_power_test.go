package taskrt

import (
	"fmt"
	"math/rand"
	"testing"

	"legato/internal/hw"
	"legato/internal/sim"
)

// placeOne runs a single one-task graph under the given policy on a fresh
// instantiation of the specs and returns the chosen device's measured
// execution seconds and dynamic energy.
func placeOne(t *testing.T, specs []hw.Spec, policy Policy, gops float64, cores int) (execSec, energyJ float64) {
	t.Helper()
	clock := sim.NewEngine()
	devs := make([]*hw.Device, 0, len(specs))
	for i, sp := range specs {
		devs = append(devs, &hw.Device{ID: fmt.Sprintf("d%d", i), Spec: sp})
	}
	rt := standalone(clock, devs, policy)
	out := rt.Data("out", 64)
	if err := rt.Submit(Task{Name: "probe", Gops: gops, Cores: cores, Out: []*Data{out}}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(res.Records))
	}
	rec := res.Records[0]
	return sim.ToSeconds(rec.End - rec.Start), float64(rec.EnergyJ)
}

// TestPolicyPicksTable pins the three policies to the placements the
// RECS|BOX-style spec fork implies: fastest, most energy-frugal, and the
// EDP sweet spot, all distinct devices.
func TestPolicyPicksTable(t *testing.T) {
	specs := []hw.Spec{
		// fast and hot: best time, terrible energy.
		{Name: "hot", Class: hw.CPUx86, Cores: 4, GOPS: 400, IdleWatts: 20, PeakWatts: 120},
		// slow and frugal: best energy, terrible time.
		{Name: "cool", Class: hw.GPU, Cores: 4, GOPS: 40, IdleWatts: 1, PeakWatts: 2},
		// balanced: best energy × time.
		{Name: "mid", Class: hw.FPGA, Cores: 4, GOPS: 200, IdleWatts: 4, PeakWatts: 16},
	}
	type pick struct {
		policy Policy
		sec    float64
		eJ     float64
	}
	picks := map[string]pick{}
	for name, p := range map[string]Policy{"time": MinTime, "energy": MinEnergy, "edp": MinEDP} {
		sec, eJ := placeOne(t, specs, p, 100, 1)
		picks[name] = pick{p, sec, eJ}
	}
	// MinTime picked the fastest: 100 Gops on 1 of 4 cores at 400 GOPS = 1 s.
	if picks["time"].sec != 1 {
		t.Fatalf("MinTime exec = %v s, want 1 (the hot device)", picks["time"].sec)
	}
	// MinEnergy picked the frugal device: 0.25 W/core × 10 s = 2.5 J.
	if picks["energy"].eJ != 2.5 {
		t.Fatalf("MinEnergy energy = %v J, want 2.5 (the cool device)", picks["energy"].eJ)
	}
	// MinEDP picked the balanced device: 2 s × 6 J = 12 J·s, beating both
	// hot (1 s × 25 J) and cool (10 s × 2.5 J).
	if got := picks["edp"].sec * picks["edp"].eJ; got != 12 {
		t.Fatalf("MinEDP product = %v J·s, want 12 (the mid device)", got)
	}
}

// TestMinEDPNeverWorse is the property test over random platforms: the
// MinEDP placement's measured energy-delay product is never worse than the
// MinTime or MinEnergy placement's, for the same task.
func TestMinEDPNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(5)
		specs := make([]hw.Spec, 0, n)
		for i := 0; i < n; i++ {
			idle := 1 + rng.Float64()*20
			specs = append(specs, hw.Spec{
				Name:      fmt.Sprintf("r%d", i),
				Class:     hw.Class(rng.Intn(5)),
				Cores:     1 + rng.Intn(16),
				GOPS:      10 + rng.Float64()*990,
				IdleWatts: idle,
				PeakWatts: idle + 5 + rng.Float64()*100,
			})
		}
		gops := 5 + rng.Float64()*200
		timeSec, timeE := placeOne(t, specs, MinTime, gops, 1)
		energySec, energyE := placeOne(t, specs, MinEnergy, gops, 1)
		edpSec, edpE := placeOne(t, specs, MinEDP, gops, 1)

		const eps = 1e-9
		edp := edpSec * edpE
		if edp > timeSec*timeE+eps {
			t.Fatalf("trial %d: MinEDP product %.6f > MinTime pick's %.6f", trial, edp, timeSec*timeE)
		}
		if edp > energySec*energyE+eps {
			t.Fatalf("trial %d: MinEDP product %.6f > MinEnergy pick's %.6f", trial, edp, energySec*energyE)
		}
		// And the other two really optimise their own objective.
		if timeSec > edpSec+eps || timeSec > energySec+eps {
			t.Fatalf("trial %d: MinTime pick is not the fastest", trial)
		}
		if energyE > edpE+eps || energyE > timeE+eps {
			t.Fatalf("trial %d: MinEnergy pick is not the most frugal", trial)
		}
	}
}

// TestUndervoltScoringAndRecord checks the undervolt knob end to end at
// the runtime layer: the record carries the level, and the dynamic energy
// shrinks quadratically with the voltage scale.
func TestUndervoltScoringAndRecord(t *testing.T) {
	spec := hw.Spec{Name: "uv", Class: hw.FPGA, Cores: 4, GOPS: 200, IdleWatts: 4, PeakWatts: 16}
	run := func(level int) Record {
		clock := sim.NewEngine()
		devs := []*hw.Device{{ID: "d0", Spec: spec}}
		rt := standalone(clock, devs, MinEnergy)
		out := rt.Data("out", 64)
		if err := rt.Submit(Task{Name: "probe", Gops: 100, Cores: 1, Undervolt: level, Out: []*Data{out}}); err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Records[0]
	}
	base := run(0)
	uv := run(2)
	if uv.Undervolt != 2 {
		t.Fatalf("record undervolt = %d, want 2", uv.Undervolt)
	}
	// Level 2 shaves 10% of voltage: energy scales by 0.9² = 0.81.
	if got, want := float64(uv.EnergyJ), float64(base.EnergyJ)*0.81; got != want {
		t.Fatalf("undervolted energy = %v, want %v", got, want)
	}
	if uv.End-uv.Start != base.End-base.Start {
		t.Fatal("undervolting changed execution time (frequency must be unchanged)")
	}

	// Out-of-range levels are rejected at submission.
	clock := sim.NewEngine()
	rt := standalone(clock, []*hw.Device{{ID: "d0", Spec: spec}}, MinEnergy)
	if err := rt.Submit(Task{Name: "bad", Gops: 1, Cores: 1, Undervolt: 99}); err == nil {
		t.Fatal("submit accepted an out-of-range undervolt level")
	}
}
