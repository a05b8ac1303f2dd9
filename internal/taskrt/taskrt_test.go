package taskrt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"legato/internal/hw"
	"legato/internal/sim"
)

func devices(eng *sim.Engine) []*hw.Device {
	return []*hw.Device{
		{ID: "cpu0", Spec: hw.XeonD()},
		{ID: "arm0", Spec: hw.ARMv8Server()},
		{ID: "gpu0", Spec: hw.JetsonTX2()},
	}
}

func TestSimpleChainOrder(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, devices(eng), MinTime)
	a := rt.Data("A", 1024)
	var order []string
	mk := func(name string, in, out []*Data) Task {
		return Task{Name: name, Gops: 1, In: in, Out: out,
			Fn: func() { order = append(order, name) }}
	}
	if err := rt.Submit(mk("w1", nil, []*Data{a})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(mk("r1", []*Data{a}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(mk("w2", nil, []*Data{a})); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "w1" || order[1] != "r1" || order[2] != "w2" {
		t.Fatalf("dependence order violated: %v", order)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	eng := sim.NewEngine()
	devs := devices(eng)
	rt := New(eng, devs, MinTime)
	for i := 0; i < 3; i++ {
		if err := rt.Submit(Task{Name: "t", Gops: 100}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With three devices, three independent tasks must overlap: makespan
	// well below the sum of individual times.
	var sum sim.Time
	for _, rec := range res.Records {
		sum += rec.End - rec.Start
	}
	if res.Makespan >= sum {
		t.Fatalf("no parallelism: makespan %v, serial sum %v", res.Makespan, sum)
	}
	// Independent equal tasks overlap fully: makespan equals the longest
	// single task, not the sum.
	var longest sim.Time
	for _, rec := range res.Records {
		if d := rec.End - rec.Start; d > longest {
			longest = d
		}
	}
	if res.Makespan != longest {
		t.Fatalf("independent tasks serialised: makespan %v, longest %v", res.Makespan, longest)
	}
}

func TestReadersShareThenWriterWaits(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, devices(eng), MinTime)
	a := rt.Data("A", 8)
	var writerStart sim.Time
	readerEnds := []sim.Time{}
	_ = rt.Submit(Task{Name: "w0", Gops: 1, Out: []*Data{a}})
	for i := 0; i < 2; i++ {
		_ = rt.Submit(Task{Name: "r", Gops: 50, In: []*Data{a},
			Fn: func() { readerEnds = append(readerEnds, eng.Now()) }})
	}
	_ = rt.Submit(Task{Name: "w1", Gops: 1, InOut: []*Data{a},
		Fn: func() { writerStart = eng.Now() }})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, re := range readerEnds {
		if writerStart < re {
			t.Fatalf("anti-dependence violated: writer finished at %v before reader at %v", writerStart, re)
		}
	}
}

func TestTargetRestriction(t *testing.T) {
	eng := sim.NewEngine()
	devs := devices(eng)
	rt := New(eng, devs, MinTime)
	_ = rt.Submit(Task{Name: "gpu-only", Gops: 10, Targets: []hw.Class{hw.GPU}})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Class != hw.GPU {
		t.Fatalf("task placed on %v, want GPU", res.Records[0].Class)
	}
}

func TestNoCompatibleDeviceFails(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, devices(eng), MinTime)
	_ = rt.Submit(Task{Name: "fpga-only", Gops: 1, Targets: []hw.Class{hw.FPGA}})
	if _, err := rt.Run(); err == nil {
		t.Fatal("task without compatible device should fail the run")
	}
}

func TestMinEnergyPrefersEfficientDevice(t *testing.T) {
	eng := sim.NewEngine()
	devs := devices(eng)
	rt := New(eng, devs, MinEnergy)
	// A small task: the ARM part costs least dynamic energy per gop among
	// CPU classes; energy policy must not pick the Xeon.
	_ = rt.Submit(Task{Name: "t", Gops: 10, Targets: []hw.Class{hw.CPUx86, hw.CPUARM}})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Class != hw.CPUARM {
		t.Fatalf("min-energy placed task on %v", res.Records[0].Class)
	}

	eng2 := sim.NewEngine()
	rt2 := New(eng2, devices(eng2), MinTime)
	_ = rt2.Submit(Task{Name: "t", Gops: 10, Targets: []hw.Class{hw.CPUx86, hw.CPUARM}})
	res2, err := rt2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records[0].Class != hw.CPUx86 {
		t.Fatalf("min-time placed task on %v", res2.Records[0].Class)
	}
}

func TestEnergyPolicySavesEnergy(t *testing.T) {
	build := func(policy Policy) *Result {
		eng := sim.NewEngine()
		rt := New(eng, devices(eng), policy)
		for i := 0; i < 20; i++ {
			_ = rt.Submit(Task{Name: "t", Gops: 20})
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	et := build(MinTime)
	ee := build(MinEnergy)
	if ee.EnergyJ >= et.EnergyJ {
		t.Fatalf("min-energy (%.2f J) not below min-time (%.2f J)", ee.EnergyJ, et.EnergyJ)
	}
	if ee.Makespan <= et.Makespan {
		t.Fatalf("expected energy policy to trade time: %v vs %v", ee.Makespan, et.Makespan)
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	eng := sim.NewEngine()
	// Single 1-core device forces serialisation.
	spec := hw.ApalisARM()
	spec.Cores = 1
	dev := &hw.Device{ID: "solo", Spec: spec}
	rt := New(eng, []*hw.Device{dev}, MinTime)
	var order []string
	for _, c := range []struct {
		name string
		prio int
	}{{"low", 0}, {"high", 5}, {"mid", 3}} {
		c := c
		_ = rt.Submit(Task{Name: c.name, Gops: 1, Priority: c.prio,
			Fn: func() { order = append(order, c.name) }})
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Dispatch happens at Run: strict priority order on the single core.
	if order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Fatalf("priority order wrong: %v", order)
	}
}

func TestCoresRequestRespected(t *testing.T) {
	eng := sim.NewEngine()
	dev := &hw.Device{ID: "cpu", Spec: hw.XeonD()} // 16 cores
	rt := New(eng, []*hw.Device{dev}, MinTime)
	_ = rt.Submit(Task{Name: "wide", Gops: 160, Cores: 16})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	wide := res.Records[0].End - res.Records[0].Start
	eng2 := sim.NewEngine()
	dev2 := &hw.Device{ID: "cpu", Spec: hw.XeonD()}
	rt2 := New(eng2, []*hw.Device{dev2}, MinTime)
	_ = rt2.Submit(Task{Name: "narrow", Gops: 160, Cores: 1})
	res2, err := rt2.Run()
	if err != nil {
		t.Fatal(err)
	}
	narrow := res2.Records[0].End - res2.Records[0].Start
	if wide*15 > narrow {
		t.Fatalf("16-core task not ~16x faster: wide %v narrow %v", wide, narrow)
	}
}

// Property: for random DAGs, every task runs exactly once and no task
// starts before all its predecessors end.
func TestRandomDAGRespectsDependences(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		eng := sim.NewEngine()
		rt := New(eng, devices(eng), Policy(rng.Intn(3)))
		nData := 1 + rng.Intn(5)
		data := make([]*Data, nData)
		for i := range data {
			data[i] = rt.Data("d", 64)
		}
		n := 1 + rng.Intn(25)
		for i := 0; i < n; i++ {
			t := Task{Name: "t", Gops: float64(1 + rng.Intn(20))}
			d := data[rng.Intn(nData)]
			switch rng.Intn(3) {
			case 0:
				t.In = []*Data{d}
			case 1:
				t.Out = []*Data{d}
			default:
				t.InOut = []*Data{d}
			}
			if rt.Submit(t) != nil {
				return false
			}
		}
		res, err := rt.Run()
		if err != nil {
			return false
		}
		if len(res.Records) != n {
			return false
		}
		for _, rec := range res.Records {
			if rec.End < rec.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
