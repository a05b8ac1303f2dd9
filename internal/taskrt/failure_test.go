package taskrt

import (
	"context"
	"errors"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
)

// TestFailedDeviceAvoided: the scheduler must route around unhealthy
// devices (the runtime half of the fault-tolerance story).
func TestFailedDeviceAvoided(t *testing.T) {
	eng := sim.NewEngine()
	xeon := &hw.Device{ID: "cpu0", Spec: hw.XeonD()}
	arm := &hw.Device{ID: "arm0", Spec: hw.ARMv8Server()}
	rt := standalone(eng, []*hw.Device{xeon, arm}, MinTime)
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
	rt := standalone(eng, []*hw.Device{d}, MinTime)
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
	rt := standalone(eng, []*hw.Device{dev}, MinTime)
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
	rt := standalone(eng, []*hw.Device{dev}, MinTime)
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

// cancelOnResume is the fleet as a runtime sees it whose ctx fires the
// moment its suspension ends.
type cancelOnResume struct {
	*power.Ledger
	cancel func()
}

func (c cancelOnResume) Reacquire(devs []*hw.Device, grants []int) bool {
	ok := c.Ledger.Reacquire(devs, grants)
	if ok {
		c.cancel()
	}
	return ok
}

// TestCancelOnResumeReleasesCores: a run cancelled just as it resumes from
// suspension, with its stalled placement reserved, leaves no core claimed
// on any device.
func TestCancelOnResumeReleasesCores(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	led := power.NewLedger(0, devs, power.RaceToIdle)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := New(eng, devs, MinTime, cancelOnResume{led, cancel})
	if err := chain(rt, 4, 20); err != nil {
		t.Fatal(err)
	}
	// A sibling's grants fill every device.
	for _, d := range devs {
		if led.Claim(d.ID, d.Spec.Cores, 0) != power.Granted {
			t.Fatalf("sibling claim on %s refused", d.ID)
		}
	}
	stalls := led.CoreStalls()
	errc := make(chan error, 1)
	go func() {
		_, err := rt.RunContext(ctx)
		errc <- err
	}()
	for led.CoreStalls() == stalls {
		time.Sleep(10 * time.Microsecond)
	}
	for _, d := range devs {
		led.Release(d.ID, d.Spec.Cores, 0)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, d := range devs {
		if n := led.InUse(d.ID); n != 0 {
			t.Fatalf("%d cores of %s left in use after the cancelled run", n, d.ID)
		}
	}
}
