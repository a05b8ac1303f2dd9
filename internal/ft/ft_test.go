package ft

import (
	"math"
	"testing"

	"legato/internal/hw"
)

// chainCampaign builds a linear chain of n jobs, every k-th critical.
func chainCampaign(mode Mode, model SDCModel, n int, criticalEvery int, seed int64) (*Campaign, []*Job) {
	c := NewCampaign(mode, model, nil, seed)
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j := &Job{Name: "job", Gops: 10, Critical: criticalEvery > 0 && i%criticalEvery == 0}
		if i > 0 {
			j.Deps = []*Job{jobs[i-1]}
		}
		jobs[i] = j
		if err := c.Add(j); err != nil {
			panic(err)
		}
	}
	return c, jobs
}

func TestAddValidatesDeps(t *testing.T) {
	c := NewCampaign(NoReplication, SDCModel{}, nil, 1)
	orphan := &Job{Name: "dep"}
	j := &Job{Name: "x", Deps: []*Job{orphan}}
	if err := c.Add(j); err == nil {
		t.Fatal("unregistered dependency accepted")
	}
}

func TestNoFaultsNoTaint(t *testing.T) {
	zero := SDCModel{hw.CPUx86: 0, hw.CPUARM: 0, hw.GPU: 0, hw.FPGA: 0}
	c, jobs := chainCampaign(NoReplication, zero, 50, 0, 2)
	c.Run()
	if c.SDCsInjected != 0 || c.TaintedOutputs != 0 {
		t.Fatalf("faults with zero-probability model: %d/%d", c.SDCsInjected, c.TaintedOutputs)
	}
	for _, j := range jobs {
		if j.tainted {
			t.Fatal("job tainted without faults")
		}
	}
}

func TestTaintPropagatesDownstream(t *testing.T) {
	// Force corruption of exactly the first job via a model that is
	// certain on every class, then zero later: simplest is prob 1 on all
	// classes with a 1-job chain head... instead mark manually.
	c, jobs := chainCampaign(NoReplication, SDCModel{hw.CPUx86: 0, hw.CPUARM: 0, hw.GPU: 0, hw.FPGA: 0}, 10, 0, 3)
	c.Run()
	// Inject taint at job 3 and recompute propagation manually.
	jobs[3].corrupted = true
	for _, j := range jobs {
		j.tainted = j.corrupted
		for _, d := range j.Deps {
			if d.tainted {
				j.tainted = true
			}
		}
	}
	for i, j := range jobs {
		want := i >= 3
		if j.tainted != want {
			t.Fatalf("job %d tainted=%v want %v", i, j.tainted, want)
		}
	}
}

func TestRootCauseFindsOrigin(t *testing.T) {
	c, jobs := chainCampaign(NoReplication, SDCModel{}, 10, 0, 4)
	c.Run()
	jobs[2].corrupted = true
	for _, j := range jobs {
		j.tainted = j.corrupted
		for _, d := range j.Deps {
			if d.tainted {
				j.tainted = true
			}
		}
	}
	roots := RootCause(jobs[9])
	if len(roots) != 1 || roots[0] != jobs[2] {
		t.Fatalf("root cause: got %v want job 2", roots)
	}
}

func TestRootCauseMultipleOrigins(t *testing.T) {
	c := NewCampaign(NoReplication, SDCModel{}, nil, 5)
	a := &Job{Name: "a"}
	b := &Job{Name: "b"}
	merge := &Job{Name: "m", Deps: []*Job{a, b}}
	_ = c.Add(a)
	_ = c.Add(b)
	_ = c.Add(merge)
	c.Run()
	a.corrupted, a.tainted = true, true
	b.corrupted, b.tainted = true, true
	merge.tainted = true
	roots := RootCause(merge)
	if len(roots) != 2 {
		t.Fatalf("want 2 roots, got %d", len(roots))
	}
}

func TestReplicationDetectsAndMasks(t *testing.T) {
	// Very high fault probability to exercise detection.
	hot := SDCModel{hw.CPUx86: 0.3, hw.CPUARM: 0.3, hw.GPU: 0.3, hw.FPGA: 0.3}
	c, jobs := chainCampaign(ReplicateAll, hot, 200, 0, 6)
	c.Run()
	if c.SDCsInjected == 0 {
		t.Fatal("hot model injected nothing")
	}
	if c.SDCsDetected != c.SDCsInjected {
		t.Fatalf("replication missed SDCs: %d of %d", c.SDCsDetected, c.SDCsInjected)
	}
	for i, j := range jobs {
		if j.tainted {
			t.Fatalf("job %d tainted despite full replication", i)
		}
	}
}

func TestSelectiveReplicationTradeoff(t *testing.T) {
	hot := SDCModel{hw.CPUx86: 0.02, hw.CPUARM: 0.02, hw.GPU: 0.02, hw.FPGA: 0.02}
	run := func(mode Mode) (tainted int, energy float64) {
		// Wide graph: independent critical jobs, each feeding a report job.
		c := NewCampaign(mode, hot, nil, 7)
		for i := 0; i < 500; i++ {
			j := &Job{Name: "work", Gops: 10, Critical: i%5 == 0}
			_ = c.Add(j)
		}
		c.Run()
		return c.TaintedOutputs, c.EnergyJ
	}
	noneT, noneE := run(NoReplication)
	selT, selE := run(SelectiveCritical)
	allT, allE := run(ReplicateAll)
	if !(allT <= selT && selT <= noneT) {
		t.Fatalf("taint ordering wrong: all=%d sel=%d none=%d", allT, selT, noneT)
	}
	if !(noneE < selE && selE < allE) {
		t.Fatalf("energy ordering wrong: none=%.0f sel=%.0f all=%.0f", noneE, selE, allE)
	}
	// Selective must cost much less than full replication: its overhead vs
	// no-replication should be ≈ critical fraction (20%) × 2, i.e. well
	// under the ~2× of replicate-all.
	selOverhead := selE/noneE - 1
	allOverhead := allE/noneE - 1
	if selOverhead > 0.5*allOverhead {
		t.Fatalf("selective overhead %.2f not well below full %.2f", selOverhead, allOverhead)
	}
}

func TestDalyOptimalInterval(t *testing.T) {
	d := DalyModel{CkptSeconds: 50, RestartSeconds: 20}
	m := 3600.0
	// At the optimal interval τ* = √(2CM) the first-order waste
	// C/τ* + τ*/2M + R/M is what Waste reports.
	tau := math.Sqrt(2 * 50 * m)
	if got, want := d.Waste(m), 50/tau+tau/(2*m)+20/m; math.Abs(got-want) > 1e-12 {
		t.Fatalf("waste at tau*=%v: got %v want %v", tau, got, want)
	}
	// Waste decreases with MTBF.
	if d.Waste(3600) <= d.Waste(36000) {
		t.Fatal("waste should fall as MTBF grows")
	}
}

func TestSustainableMTBFInvertsWaste(t *testing.T) {
	d := DalyModel{CkptSeconds: 47, RestartSeconds: 19}
	for _, m := range []float64{600, 3600, 14400} {
		w := d.Waste(m)
		back := d.SustainableMTBF(w)
		if math.Abs(back-m)/m > 1e-9 {
			t.Fatalf("inversion failed: M=%v → w=%v → M=%v", m, w, back)
		}
	}
	// Zero restart branch.
	d0 := DalyModel{CkptSeconds: 10}
	w := d0.Waste(1000)
	if math.Abs(d0.SustainableMTBF(w)-1000)/1000 > 1e-9 {
		t.Fatal("zero-restart inversion failed")
	}
}

func TestMTBFImprovementMatchesPaper(t *testing.T) {
	// Paper Sec. IV: "for the same amount of application overhead, the
	// extended FTI version can sustain execution in systems with 7 times
	// smaller MTBF". Our measured C/R pairs (Fig. 6 reproduction):
	initial := DalyModel{CkptSeconds: 46.9, RestartSeconds: 19.0}
	async := DalyModel{CkptSeconds: 4.03, RestartSeconds: 4.01}
	factor := MTBFImprovement(initial, async, 4*3600)
	if factor < 7 {
		t.Fatalf("MTBF improvement %.1fx, paper estimates ≥7x", factor)
	}
	if factor > 20 {
		t.Fatalf("MTBF improvement %.1fx implausibly high", factor)
	}
}
