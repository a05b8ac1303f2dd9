package taskrt

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"legato/internal/energy"
	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// wideDevices is a CPU-heavy platform: two 16-core x86 servers, two 8-core
// ARM servers, and a GPU no wide-DAG task targets.
func wideDevices(eng *sim.Engine) []*hw.Device {
	return []*hw.Device{
		{ID: "cpu0", Spec: hw.XeonD()},
		{ID: "cpu1", Spec: hw.XeonD()},
		{ID: "arm0", Spec: hw.ARMv8Server()},
		{ID: "arm1", Spec: hw.ARMv8Server()},
		{ID: "gpu0", Spec: hw.JetsonTX2()},
	}
}

// wideDAG submits layers × width tasks. Every task writes its own region
// and reads one to three outputs of the previous layer, so each layer is a
// wide band of ready 2-8 core CPU tasks, priorities 0-3, far more than the
// CPUs can hold at once.
func wideDAG(rt *Runtime, rng *rand.Rand, layers, width int) error {
	targets := [][]hw.Class{{hw.CPUx86}, {hw.CPUARM}, {hw.CPUx86, hw.CPUARM}}
	var prev []*Data
	for l := 0; l < layers; l++ {
		cur := make([]*Data, width)
		for i := range cur {
			cur[i] = rt.Data(fmt.Sprintf("d%d.%d", l, i), 1<<20)
			t := Task{
				Name:     fmt.Sprintf("t%d.%d", l, i),
				Gops:     5 + 45*rng.Float64(),
				Cores:    2 + rng.Intn(7),
				Targets:  targets[rng.Intn(len(targets))],
				Priority: rng.Intn(4),
				Out:      []*Data{cur[i]},
			}
			for k := rng.Intn(3); k >= 0 && len(prev) > 0; k-- {
				t.In = append(t.In, prev[rng.Intn(len(prev))])
			}
			if err := rt.Submit(t); err != nil {
				return err
			}
		}
		prev = cur
	}
	return nil
}

// dispatchCase builds one seeded 10×200 wide DAG on wideDevices behind a
// fleet ledger, uncapped unless capW is positive; arm adds the case's
// faults before the run.
func dispatchCase(t *testing.T, capW energy.Watts, arm func(*Runtime, *power.Ledger)) (*Result, map[obs.Kind]int) {
	t.Helper()
	eng := sim.NewEngine()
	devs := wideDevices(eng)
	led := power.NewLedger(capW, devs, power.PackAndThrottle)
	rt := New(eng, devs, MinEDP, led)
	kinds := map[obs.Kind]int{}
	rt.SetSink(func(e obs.Event) { kinds[e.Kind]++ })
	if arm != nil {
		arm(rt, led)
	}
	if err := wideDAG(rt, rand.New(rand.NewSource(1)), 10, 200); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, kinds
}

// formatPlacements renders every record's placement, then the run's
// makespan and event tally, so any change in where, when or at what energy
// a task ran shows as a line diff.
func formatPlacements(res *Result, kinds map[obs.Kind]int) string {
	var b strings.Builder
	for _, rec := range res.Records {
		fmt.Fprintf(&b, "%s %s %d %d %v\n", rec.Name, rec.Device, rec.Start, rec.End, float64(rec.EnergyJ))
	}
	fmt.Fprintf(&b, "makespan %d\n", res.Makespan)
	for k := obs.TaskQueued; k <= obs.HedgeDenied; k++ {
		if n := kinds[k]; n > 0 {
			fmt.Fprintf(&b, "%s %d\n", k, n)
		}
	}
	return b.String()
}

// TestDispatchPlacementGolden pins every task's placement (device, start,
// end, energy) and the event tally of three seeded wide-DAG runs on
// saturated CPUs: plain; under a watt cap with the PackAndThrottle
// governor, so refused draws step devices down and are retried after the
// next placement; and with a device crash and a capacity shrink mid-run.
// The goldens under testdata/ were generated before the dispatch loop was
// indexed; a dispatch optimisation must leave them untouched.
func TestDispatchPlacementGolden(t *testing.T) {
	cases := []struct {
		name  string
		capW  energy.Watts
		arm   func(*Runtime, *power.Ledger)
		check func(*testing.T, map[obs.Kind]int)
	}{
		{name: "wide"},
		{
			name: "power",
			capW: 0.6 * power.FleetPeakWatts(wideDevices(sim.NewEngine())),
			check: func(t *testing.T, kinds map[obs.Kind]int) {
				if kinds[obs.PowerRefused] == 0 || kinds[obs.GovernorThrottled] == 0 {
					t.Fatalf("refused=%d throttled=%d, want the refuse-throttle-retry path exercised",
						kinds[obs.PowerRefused], kinds[obs.GovernorThrottled])
				}
			},
		},
		{
			name: "fail",
			arm: func(rt *Runtime, led *power.Ledger) {
				rt.SetRetryPolicy(3, time.Millisecond)
				rt.ScheduleFault(20*time.Second, func() { led.SetCapacity("arm0", 4) })
				rt.ScheduleFault(35*time.Second, func() {
					led.Fail("cpu0")
					rt.FailDevice("cpu0")
				})
			},
			check: func(t *testing.T, kinds map[obs.Kind]int) {
				if kinds[obs.DeviceLost] != 1 || kinds[obs.TaskRetried] == 0 {
					t.Fatalf("lost=%d retried=%d, want one mid-run device loss with re-placements",
						kinds[obs.DeviceLost], kinds[obs.TaskRetried])
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, kinds := dispatchCase(t, c.capW, c.arm)
			if c.check != nil {
				c.check(t, kinds)
			}
			path := filepath.Join("testdata", "dispatch-"+c.name+".golden")
			got := formatPlacements(res, kinds)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(g) && i < len(w); i++ {
					if g[i] != w[i] {
						t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
					}
				}
				t.Fatalf("%s differs in length: got %d lines, want %d", path, len(g), len(w))
			}
		})
	}
}

// BenchmarkDispatch measures the host cost of running a ten-layer wide DAG
// whose layer width grows with the task count, so the ready queue is a
// tenth of the graph. Only Run is timed; ns/task and allocs/task divide by
// the tasks executed. Proportional dispatch keeps ns/task flat across the
// sweep.
func BenchmarkDispatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			var before, after runtime.MemStats
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := sim.NewEngine()
				devs := wideDevices(eng)
				rt := standalone(eng, devs, MinEDP)
				if err := wideDAG(rt, rand.New(rand.NewSource(1)), 10, n/10); err != nil {
					b.Fatal(err)
				}
				runtime.GC() // collect the build's garbage outside the timed run
				runtime.ReadMemStats(&before)
				b.StartTimer()
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				b.StartTimer()
			}
			tasks := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
			b.ReportMetric(float64(mallocs)/tasks, "allocs/task")
		})
	}
}

// checkQueue fails unless every ready node is held exactly once — in a
// lane, or aside by the dispatch call in progress — and exactly the held
// nodes are flagged queued.
func checkQueue(t *testing.T, rt *Runtime) {
	t.Helper()
	held := map[*node]int{}
	for _, l := range rt.lanes {
		for i, e := range l.heap {
			held[e.n]++
			if int(e.n.slot) != i || e.n.lane != l {
				t.Fatalf("task %s at slot %d of its lane records slot %d", e.n.task.Name, i, e.n.slot)
			}
		}
	}
	for _, n := range rt.aside {
		held[n]++
	}
	for n, k := range held {
		if k != 1 {
			t.Fatalf("task %s held %d times in the ready queue", n.task.Name, k)
		}
	}
	queued := 0
	for _, n := range rt.nodes {
		if n.queued {
			queued++
			if held[n] == 0 {
				t.Fatalf("task %s flagged queued but not held", n.task.Name)
			}
		}
	}
	if queued != len(held) || queued != rt.nready {
		t.Fatalf("%d flagged queued, %d held, nready %d", queued, len(held), rt.nready)
	}
}

// A device lost in the middle of a wide layer revokes running tasks and
// invalidates completed outputs that pending successors still need. Every
// revoked or invalidated task must come back to the ready queue exactly
// once: the queue never holds a task twice, each task starts once per
// execution it owes (first run plus one per retry or restore), and each
// ends with one committed record.
func TestDeviceLossRequeuesOnce(t *testing.T) {
	eng := sim.NewEngine()
	devs := wideDevices(eng)
	led := power.NewLedger(0, devs, power.RaceToIdle)
	rt := New(eng, devs, MinEDP, led)
	// A backoff near a layer's span lets a revoked task's invalidated
	// predecessor re-run and re-release it while its backoff is pending.
	rt.SetRetryPolicy(3, 2*time.Second)
	placedN, retriedN, completedN := map[string]int{}, map[string]int{}, map[string]int{}
	rt.SetSink(func(e obs.Event) {
		switch e.Kind {
		case obs.TaskPlaced:
			placedN[e.Task]++
		case obs.TaskRetried:
			retriedN[e.Task]++
		case obs.TaskCompleted:
			completedN[e.Task]++
		}
		checkQueue(t, rt)
	})
	var revoked, restored int
	rt.ScheduleFault(3500*time.Millisecond, func() {
		led.Fail("cpu0")
		revoked, restored = rt.FailDevice("cpu0")
		checkQueue(t, rt)
	})
	const layers, width = 3, 60
	if err := wideDAG(rt, rand.New(rand.NewSource(2)), layers, width); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if revoked == 0 || restored == 0 {
		t.Fatalf("revoked=%d restored=%d, want the loss to hit running and completed tasks", revoked, restored)
	}
	if len(res.Records) != layers*width {
		t.Fatalf("%d records, want %d", len(res.Records), layers*width)
	}
	for _, rec := range res.Records {
		owed := 1 + retriedN[rec.Name]
		if placedN[rec.Name] != owed || rec.Attempts != owed {
			t.Fatalf("task %s placed %d times with %d attempts recorded, want %d (1 + %d retries)",
				rec.Name, placedN[rec.Name], rec.Attempts, owed, retriedN[rec.Name])
		}
		if retriedN[rec.Name] > 0 && rec.Device == "cpu0" {
			t.Fatalf("task %s re-ran but committed on the lost device", rec.Name)
		}
	}
	if rt.nready != 0 || rt.inDAG != 0 {
		t.Fatalf("after the run: %d queued, %d unfinished", rt.nready, rt.inDAG)
	}
}

// TestShapeReadsByDeviceID: the runtime reads fleet capacity and operating
// points by device ID, whatever order its own device list has, and a
// device the ledger does not track reads as zero cores, so no task lands
// on it.
func TestShapeReadsByDeviceID(t *testing.T) {
	ref := wideDevices(sim.NewEngine())
	// The cap covers every device at full tilt: only the forced refusal
	// below is ever refused.
	led := power.NewLedger(power.FleetPeakWatts(ref), ref, power.PackAndThrottle)
	eng := sim.NewEngine()
	mirror := []*hw.Device{
		{ID: "gpu0", Spec: hw.JetsonTX2()},
		{ID: "ghost", Spec: hw.XeonD()},
		{ID: "arm1", Spec: hw.ARMv8Server()},
		{ID: "cpu1", Spec: hw.XeonD()},
		{ID: "arm0", Spec: hw.ARMv8Server()},
		{ID: "cpu0", Spec: hw.XeonD()},
	}
	rt := New(eng, mirror, MinEDP, led)
	check := func(what string) {
		t.Helper()
		rt.refreshShape()
		cores, points := make([]int, len(mirror)), make([]int, len(mirror))
		led.Shape(mirror, cores, points)
		for i, d := range mirror {
			if rt.capacity[i] != led.Capacity(d.ID) || rt.points[i] != points[i] {
				t.Fatalf("%s: %s reads (%d cores, point %d), ledger has (%d, %d)", what, d.ID,
					rt.capacity[i], rt.points[i], led.Capacity(d.ID), points[i])
			}
		}
		if rt.capacity[1] != 0 {
			t.Fatalf("%s: untracked device reads %d cores, want 0", what, rt.capacity[1])
		}
	}
	check("construction")
	led.SetCapacity("cpu1", 4)
	check("shrink")
	led.Fail("arm0")
	check("loss")
	if led.Claim("cpu0", 0, 1e6) != power.NoWatts {
		t.Fatal("over-cap draw granted")
	}
	check("throttle")
	rt.applyOperatingPoints()
	points := make([]int, len(mirror))
	led.Shape(mirror, make([]int, len(mirror)), points)
	if p := rt.state[5].point; p != 1 || p != points[5] {
		t.Fatalf("runtime applies point %d to cpu0, ledger prescribes %d", p, points[5])
	}
	if err := wideDAG(rt, rand.New(rand.NewSource(3)), 2, 12); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Device == "ghost" || rec.Device == "arm0" {
			t.Fatalf("task %s placed on %s, which the fleet does not offer", rec.Name, rec.Device)
		}
	}
}
