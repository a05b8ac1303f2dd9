package taskrt

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/sim"
)

// moldCPU is a cores-core CPU of 10 Gops/s per core.
func moldCPU(eng *sim.Engine, id string, cores int) *hw.Device {
	spec := hw.XeonD()
	spec.Cores, spec.GOPS = cores, 10*float64(cores)
	return &hw.Device{ID: id, Spec: spec}
}

// moldRun runs tasks on one moldCPU behind a fleet ledger and returns the
// result, each task's width as its TaskPlaced event reported it, and the
// ledger.
func moldRun(t *testing.T, cores int, tasks ...Task) (*Result, map[string]int, *power.Ledger) {
	t.Helper()
	eng := sim.NewEngine()
	devs := []*hw.Device{moldCPU(eng, "cpu", cores)}
	led := power.NewLedger(0, devs, power.RaceToIdle)
	rt := New(eng, devs, MinTime, led)
	widths := map[string]int{}
	rt.SetSink(func(e obs.Event) {
		if e.Kind == obs.TaskPlaced {
			widths[e.Task] = int(e.Value)
		}
	})
	for _, task := range tasks {
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, widths, led
}

func molded(name string, gops float64, minW, maxW int, frac float64) Task {
	return Task{Name: name, Gops: gops, Cores: minW, Mold: &Moldable{MaxCores: maxW, ParallelFrac: frac}}
}

func TestMoldableSpeedupAmdahl(t *testing.T) {
	m := &Moldable{ParallelFrac: 0.9}
	if s := m.Speedup(1); s != 1 {
		t.Fatalf("width-1 speedup: %v", s)
	}
	// Amdahl with p=0.9 at w=8: 1/(0.1 + 0.9/8) ≈ 4.706
	if s := m.Speedup(8); math.Abs(s-4.705882352941176) > 1e-12 {
		t.Fatalf("width-8 speedup: %v", s)
	}
	lin := &Moldable{ParallelFrac: 1}
	if s := lin.Speedup(16); s != 16 {
		t.Fatalf("linear speedup: %v", s)
	}
}

// TestMoldableRunsAtAmdahlTime: a moldable task's span is its 1-core time
// over the speedup at the width it was placed at, and its energy is that
// width's draw over the span.
func TestMoldableRunsAtAmdahlTime(t *testing.T) {
	res, widths, _ := moldRun(t, 16, molded("capped", 100, 1, 4, 0.9))
	if w := widths["capped"]; w != 4 {
		t.Fatalf("MaxCores ignored: width %d, want 4", w)
	}
	rec := res.Records[0]
	want := sim.Time(float64(sim.Seconds(10)) / (&Moldable{ParallelFrac: 0.9}).Speedup(4))
	if got := rec.End - rec.Start; got != want {
		t.Fatalf("span %v, want %v", got, want)
	}
	if math.Abs(rec.EnergyJ-rec.DrawW*sim.ToSeconds(want)) > 1e-9 {
		t.Fatalf("energy %v J, want %v W × %v", rec.EnergyJ, rec.DrawW, want)
	}
}

func TestMoldableFixedOneRunsSerial(t *testing.T) {
	var tasks []Task
	for _, n := range []string{"a", "b", "c", "d"} {
		tasks = append(tasks, molded(n, 100, 1, 1, 1))
	}
	res, widths, _ := moldRun(t, 8, tasks...)
	for _, rec := range res.Records {
		if w := widths[rec.Name]; w != 1 {
			t.Fatalf("1..1 task %s ran at width %d", rec.Name, w)
		}
		if rec.End-rec.Start != sim.Seconds(10) {
			t.Fatalf("1..1 task %s span %v, want 10s", rec.Name, rec.End-rec.Start)
		}
	}
}

// TestElasticSplitsCoresAcrossReadyTasks: four equal, perfectly parallel
// tasks on 8 free cores take two each and all start at once; the ledger
// ends the run with nothing held.
func TestElasticSplitsCoresAcrossReadyTasks(t *testing.T) {
	var tasks []Task
	for _, n := range []string{"a", "b", "c", "d"} {
		tasks = append(tasks, molded(n, 100, 1, 8, 1))
	}
	res, widths, led := moldRun(t, 8, tasks...)
	for _, rec := range res.Records {
		if w := widths[rec.Name]; w != 2 {
			t.Fatalf("task %s: elastic width %d, want 2", rec.Name, w)
		}
		if rec.Start != 0 {
			t.Fatalf("task %s delayed to %v", rec.Name, rec.Start)
		}
	}
	if led.Peak("cpu") != 8 || led.InUse("cpu") != 0 {
		t.Fatalf("ledger peak %d in use %d, want 8 and 0", led.Peak("cpu"), led.InUse("cpu"))
	}
}

// TestElasticAvoidsWastefulWidth: a mostly serial task stays narrow even
// on an idle 16-core device.
func TestElasticAvoidsWastefulWidth(t *testing.T) {
	_, widths, _ := moldRun(t, 16, molded("serial", 100, 1, 16, 0.2))
	if w := widths["serial"]; w > 2 {
		t.Fatalf("serial task got width %d", w)
	}
}

// TestMoldableReplacementsUsePlacedWidth: a perfectly parallel 160 Gops
// task molds to all 16 cores of "big" (1 s). A hedge replica and a
// re-placement after a crash both land on the 8-core "small" and take its 8
// cores (a re-placement emits a second TaskPlaced, a hedge does not), and
// every grant returns to the ledger.
func TestMoldableReplacementsUsePlacedWidth(t *testing.T) {
	for _, c := range []struct {
		name   string
		fault  func(*Runtime)
		placed []float64
	}{
		{"hedge", func(rt *Runtime) { rt.DegradeDevice("big", 4) }, []float64{16}},
		{"crash", func(rt *Runtime) { rt.FailDevice("big") }, []float64{16, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			devs := []*hw.Device{moldCPU(eng, "big", 16), moldCPU(eng, "small", 8)}
			led := power.NewLedger(0, devs, power.RaceToIdle)
			rt := New(eng, devs, MinTime, led)
			rt.SetHedging(HedgePolicy{Multiplier: 1.5})
			rt.SetRetryPolicy(1, time.Millisecond)
			var placed []float64
			rt.SetSink(func(e obs.Event) {
				if e.Kind == obs.TaskPlaced {
					placed = append(placed, e.Value)
				}
			})
			rt.ScheduleFault(time.Millisecond, func() { c.fault(rt) })
			if err := rt.Submit(molded("work", 160, 1, 16, 1)); err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rec := res.Records[0]; rec.Device != "small" {
				t.Fatalf("committed on %s, want small", rec.Device)
			}
			if !slices.Equal(placed, c.placed) {
				t.Fatalf("TaskPlaced widths %v, want %v", placed, c.placed)
			}
			for id, want := range map[string]int{"big": 16, "small": 8} {
				if led.Peak(id) != want || led.InUse(id) != 0 {
					t.Fatalf("%s: ledger peak %d in use %d, want %d and 0", id, led.Peak(id), led.InUse(id), want)
				}
			}
		})
	}
}

func TestMoldableSubmitValidation(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, []*hw.Device{moldCPU(eng, "cpu", 8)}, MinTime)
	for _, task := range []Task{
		molded("narrow-max", 10, 4, 2, 0.5),
		molded("frac-high", 10, 1, 8, 1.5),
		molded("frac-low", 10, 1, 8, -0.1),
		molded("frac-nan", 10, 1, 8, math.NaN()),
	} {
		if err := rt.Submit(task); !errors.Is(err, ErrInvalidTask) {
			t.Fatalf("%s: err = %v, want ErrInvalidTask", task.Name, err)
		}
	}
	if err := rt.Submit(molded("ok", 10, 2, 2, 0)); err != nil {
		t.Fatalf("valid moldable task rejected: %v", err)
	}
}

// TestNodeSize pins the per-task node at 416 B, which is exactly a Go
// allocation size class: one more word moves every node to the 448 B class
// and lifts the many-jobs benchmark's heap_live_mb by about 2%, its whole
// bound. Regroup fields before growing Task or Record.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s > 416 {
		t.Fatalf("node is %d B, want at most 416", s)
	}
}
