package taskrt

import (
	"testing"

	"legato/internal/hw"
	"legato/internal/sim"
)

// TestFailedDeviceAvoided: the scheduler must route around unhealthy
// devices (the runtime half of the fault-tolerance story).
func TestFailedDeviceAvoided(t *testing.T) {
	eng := sim.NewEngine()
	xeon := &hw.Device{ID: "cpu0", Spec: hw.XeonD()}
	arm := &hw.Device{ID: "arm0", Spec: hw.ARMv8Server()}
	rt := New(eng, []*hw.Device{xeon, arm}, MinTime)
	rt.MarkLost("cpu0")
	_ = rt.Submit(Task{Name: "t", Gops: 10})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Device != "arm0" {
		t.Fatalf("task placed on failed device path: %s", res.Records[0].Device)
	}
}

// TestAllDevicesFailedErrors: with no healthy device the run reports the
// stuck task instead of hanging.
func TestAllDevicesFailedErrors(t *testing.T) {
	eng := sim.NewEngine()
	d := &hw.Device{ID: "cpu0", Spec: hw.XeonD()}
	rt := New(eng, []*hw.Device{d}, MinTime)
	rt.MarkLost("cpu0")
	_ = rt.Submit(Task{Name: "t", Gops: 1})
	if _, err := rt.Run(); err == nil {
		t.Fatal("run succeeded with every device failed")
	}
}

// TestWideTaskQueuesBehindNarrow: a task wider than the free cores waits
// without starving the machine.
func TestWideTaskQueuesBehindNarrow(t *testing.T) {
	eng := sim.NewEngine()
	dev := &hw.Device{ID: "cpu0", Spec: hw.XeonD()} // 16 cores
	rt := New(eng, []*hw.Device{dev}, MinTime)
	var wideStart sim.Time
	_ = rt.Submit(Task{Name: "narrow", Gops: 100, Cores: 10})
	_ = rt.Submit(Task{Name: "wide", Gops: 10, Cores: 16,
		Fn: func() {}})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Name == "wide" {
			wideStart = r.Start
		}
	}
	if wideStart == 0 {
		t.Fatal("wide task did not wait for cores")
	}
}

// TestZeroGopsTaskCompletesInstantly: control tasks (votes, barriers) cost
// nothing but still respect dependences.
func TestZeroGopsTaskCompletesInstantly(t *testing.T) {
	eng := sim.NewEngine()
	dev := &hw.Device{ID: "cpu0", Spec: hw.XeonD()}
	rt := New(eng, []*hw.Device{dev}, MinTime)
	a := rt.Data("a", 8)
	ran := false
	_ = rt.Submit(Task{Name: "w", Gops: 5, Out: []*Data{a}})
	_ = rt.Submit(Task{Name: "vote", Gops: 0, In: []*Data{a}, Fn: func() { ran = true }})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero-cost task skipped")
	}
	var wEnd, vStart sim.Time
	for _, r := range res.Records {
		if r.Name == "w" {
			wEnd = r.End
		}
		if r.Name == "vote" {
			vStart = r.Start
		}
	}
	if vStart < wEnd {
		t.Fatal("zero-cost task jumped its dependence")
	}
}
