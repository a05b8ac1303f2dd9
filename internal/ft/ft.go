// Package ft implements the LEGaTO fault-tolerance mechanisms of paper
// Sec. I: task replication on diverse processing elements ("replicating
// tasks intelligently on diverse processing elements exploiting the
// spatial/temporal slack"), energy-efficient *selective* replication of
// reliability-critical tasks, error-propagation detection across task
// boundaries with dependency-graph root-cause analysis, and the
// Young/Daly checkpoint-overhead model used to derive the Sec. IV claim
// that the async FTI extension sustains systems with 7× smaller MTBF.
package ft

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"legato/internal/hw"
)

// SDCModel gives per-execution silent-data-corruption probabilities by
// device class (FPGAs running undervolted are the motivating case).
type SDCModel map[hw.Class]float64

// MTBFModel gives per-class mean time between failures in seconds — the
// hard-failure analogue of SDCModel. A class absent from the model never
// crashes. Paper Sec. IV motivates the spread: undervolted FPGAs and
// accelerators pushed to the energy-efficiency edge fail far more often
// than conservatively-clocked CPUs.
type MTBFModel map[hw.Class]float64

// DefaultMTBFModel is a representative model (seconds between failures):
// CPUs are near-immortal on session timescales; GPUs and DFEs fail
// occasionally; undervolted FPGAs are the weakest.
func DefaultMTBFModel() MTBFModel {
	return MTBFModel{
		hw.CPUx86: 400 * 3600,
		hw.CPUARM: 400 * 3600,
		hw.GPU:    80 * 3600,
		hw.FPGA:   24 * 3600,
		hw.DFE:    48 * 3600,
	}
}

// Scaled returns a copy of the model with every MTBF multiplied by k —
// how experiments compress datacentre failure timescales onto a
// session-length virtual clock.
func (m MTBFModel) Scaled(k float64) MTBFModel {
	out := make(MTBFModel, len(m))
	for c, v := range m {
		out[c] = v * k
	}
	return out
}

// Mode selects the replication strategy.
type Mode int

const (
	// NoReplication runs each task once.
	NoReplication Mode = iota
	// ReplicateAll duplicates every task on diverse classes.
	ReplicateAll
	// SelectiveCritical duplicates only Critical tasks (the LEGaTO
	// energy-efficient strategy).
	SelectiveCritical
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ReplicateAll:
		return "replicate-all"
	case SelectiveCritical:
		return "selective-critical"
	default:
		return "no-replication"
	}
}

// Job is one node of the protected task graph.
type Job struct {
	Name     string
	Gops     float64
	Critical bool
	Deps     []*Job

	id int
	// outcome after the campaign:
	corrupted bool // this job's own execution produced an SDC
	tainted   bool // output wrong (own corruption or inherited)
}

// Campaign runs a task graph under a fault model and replication mode.
type Campaign struct {
	Mode  Mode
	Model SDCModel
	// Classes lists the device classes available for placement; diversity
	// means replicas run on different classes when possible.
	Classes []hw.Class
	// EnergyPerGop maps class → joules per giga-operation (for overhead
	// accounting). Zero entries default to 0.1 J/gop.
	EnergyPerGop map[hw.Class]float64

	rng  *rand.Rand
	jobs []*Job

	// Results
	Executions     int
	EnergyJ        float64
	SDCsInjected   int
	SDCsDetected   int
	TaintedOutputs int
}

// NewCampaign builds a campaign with a deterministic seed.
func NewCampaign(mode Mode, model SDCModel, classes []hw.Class, seed int64) *Campaign {
	if len(classes) == 0 {
		classes = []hw.Class{hw.CPUx86, hw.CPUARM, hw.GPU, hw.FPGA}
	}
	return &Campaign{
		Mode:    mode,
		Model:   model,
		Classes: classes,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Add registers a job (dependencies must be added first).
func (c *Campaign) Add(j *Job) error {
	for _, d := range j.Deps {
		if d.id >= len(c.jobs) || c.jobs[d.id] != d {
			return fmt.Errorf("ft: job %q depends on unregistered job %q", j.Name, d.Name)
		}
	}
	j.id = len(c.jobs)
	c.jobs = append(c.jobs, j)
	return nil
}

// energyPerGop returns the per-class energy coefficient.
func (c *Campaign) energyPerGop(class hw.Class) float64 {
	if c.EnergyPerGop != nil {
		if v, ok := c.EnergyPerGop[class]; ok && v > 0 {
			return v
		}
	}
	return 0.1
}

// execute models one run of a job on a class and reports corruption.
func (c *Campaign) execute(j *Job, class hw.Class) bool {
	c.Executions++
	c.EnergyJ += j.Gops * c.energyPerGop(class)
	p := c.Model[class]
	return c.rng.Float64() < p
}

// pickDiverse returns n distinct classes (cycling if fewer exist).
func (c *Campaign) pickDiverse(n int) []hw.Class {
	out := make([]hw.Class, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.Classes[i%len(c.Classes)])
	}
	return out
}

// Run executes the campaign in dependence order (jobs were added in a
// topological order by construction) and computes taint propagation.
func (c *Campaign) Run() {
	for _, j := range c.jobs {
		replicate := c.Mode == ReplicateAll || (c.Mode == SelectiveCritical && j.Critical)
		if replicate {
			// Dual-modular redundancy on diverse classes; mismatch →
			// detected → re-execute until two agree (here: one retry on a
			// third class, counted as correct — triple vote).
			pair := c.pickDiverse(2)
			c1 := c.execute(j, pair[0])
			c2 := c.execute(j, pair[1])
			if c1 != c2 || (c1 && c2) {
				// Any corruption among replicas is detected unless both
				// failed identically, which diverse hardware makes
				// vanishingly unlikely; model identical double-failure as
				// detection too, resolved by the third vote.
				if c1 || c2 {
					c.SDCsInjected++
					c.SDCsDetected++
					// Third execution repairs the output.
					c.execute(j, c.pickDiverse(3)[2])
				}
			}
			j.corrupted = false // replication masked it
		} else {
			if c.execute(j, c.Classes[j.id%len(c.Classes)]) {
				c.SDCsInjected++
				j.corrupted = true
			}
		}
		// Taint propagation across task boundaries.
		j.tainted = j.corrupted
		for _, d := range j.Deps {
			if d.tainted {
				j.tainted = true
			}
		}
		if j.tainted {
			c.TaintedOutputs++
		}
	}
}

// RootCause walks the dependency graph backwards from a tainted job to the
// earliest tainted ancestors whose own execution was corrupted — the
// failure-root-cause analysis the task model enables (Sec. I).
func RootCause(j *Job) []*Job {
	seen := map[*Job]bool{}
	var roots []*Job
	var walk func(*Job)
	walk = func(x *Job) {
		if seen[x] {
			return
		}
		seen[x] = true
		if !x.tainted {
			return
		}
		anyTaintedDep := false
		for _, d := range x.Deps {
			if d.tainted {
				anyTaintedDep = true
				walk(d)
			}
		}
		if !anyTaintedDep && x.corrupted {
			roots = append(roots, x)
		}
	}
	walk(j)
	sort.Slice(roots, func(a, b int) bool { return roots[a].id < roots[b].id })
	return roots
}

// DalyModel is the first-order checkpoint-overhead model: for checkpoint
// cost C, restart cost R and MTBF M (all seconds), the optimal interval is
// τ* = √(2CM) and the waste fraction at τ* is √(2C/M) + R/M.
type DalyModel struct {
	CkptSeconds    float64
	RestartSeconds float64
}

// Waste returns the waste fraction at the optimal interval.
func (d DalyModel) Waste(mtbf float64) float64 {
	if mtbf <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2*d.CkptSeconds/mtbf) + d.RestartSeconds/mtbf
}

// SustainableMTBF solves Waste(M) = targetWaste for M: the smallest MTBF
// at which the system still meets the overhead budget.
func (d DalyModel) SustainableMTBF(targetWaste float64) float64 {
	if targetWaste <= 0 {
		return math.Inf(1)
	}
	// w = √(2C)/√M + R/M. Substitute x = 1/√M: R·x² + √(2C)·x − w = 0.
	a := d.RestartSeconds
	b := math.Sqrt(2 * d.CkptSeconds)
	cw := -targetWaste
	if a == 0 {
		x := targetWaste / b
		return 1 / (x * x)
	}
	x := (-b + math.Sqrt(b*b-4*a*cw)) / (2 * a)
	return 1 / (x * x)
}

// MTBFImprovement compares two C/R implementations at a reference MTBF:
// it returns how much smaller an MTBF the improved implementation can
// sustain at the baseline's waste level (the paper's "7 times smaller
// MTBF" estimate for async vs initial FTI).
func MTBFImprovement(baseline, improved DalyModel, refMTBF float64) float64 {
	budget := baseline.Waste(refMTBF)
	sustainable := improved.SustainableMTBF(budget)
	return refMTBF / sustainable
}
