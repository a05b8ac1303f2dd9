package main

import (
	"fmt"
	"math/rand"
	"time"

	"legato"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/fti"
	"legato/internal/hw"
)

// region is one data region a job declares with Job.Data.
type region struct {
	name string
	size int64
}

// taskSpec is one generated task: inputs and the output are indices into
// the job's regions.
type taskSpec struct {
	name       string
	gops       float64
	cores      int
	on         []hw.Class
	in         []int
	out        int
	priority   int
	deadline   time.Duration
	replicated bool
	secure     bool
}

// jobSpec is one generated task graph. The generator owns the randomness;
// the program only ever sees the graph.
type jobSpec struct {
	name    string
	regions []region
	tasks   []taskSpec
}

// build declares the job's regions and submits its tasks through the
// public API, in generation order.
func (s *jobSpec) build(job *legato.Job) error {
	hs := make([]legato.DataHandle, len(s.regions))
	for i, r := range s.regions {
		hs[i] = job.Data(r.name, r.size)
	}
	for i := range s.tasks {
		t := &s.tasks[i]
		b := job.Task(t.name).Gops(t.gops).Cores(t.cores).Priority(t.priority).Out(hs[t.out])
		if len(t.on) > 0 {
			b.On(t.on...)
		}
		for _, in := range t.in {
			b.In(hs[in])
		}
		if t.deadline > 0 {
			b.Deadline(t.deadline)
		}
		if t.replicated {
			b.Replicated()
		}
		if t.secure {
			b.Secure()
		}
		if err := b.Submit(); err != nil {
			return fmt.Errorf("submit %s: %w", t.name, err)
		}
	}
	return nil
}

// workload is one load shape. Every workload is a closed loop over
// sessions: NewSystem, jobs run with at most `workers` in flight, Close.
type workload struct {
	name    string
	workers int
	// pool is how many jobs the seed generates; the untimed fleet pass runs
	// them all in one session. jobs is the timed session size: every timed
	// session replays the first jobs of the pool, so all of them do the same
	// work.
	pool, jobs int
	// options returns the system options; capW is 60% of the cloud fleet's
	// nominal peak draw.
	options func(capW float64) []legato.Option
	gen     func(r *rand.Rand, name string) jobSpec
	// observed arms the event log plus a counting observer, and ends each
	// session with ExportSession.
	observed bool
	// powerFaults arms Job.Checkpoint(8, fti.L1) on every job, and the
	// checks that the capped, faulty workload held the cap and fired every
	// mechanism.
	powerFaults bool
}

var workloads = []*workload{
	// Hundreds of ready multi-core tasks compete for the CPU devices, so
	// per-event dispatch and fleet admission dominate.
	{
		name:    "wide-dag",
		workers: 1,
		pool:    12,
		jobs:    3,
		options: func(float64) []legato.Option {
			return []legato.Option{legato.WithWorkers(1), legato.WithPolicy(legato.MinEDP)}
		},
		gen: genWideDAG,
	},
	// Small contention-free jobs, so per-job fixed costs (platform mirror,
	// hooks, enclave, report, trace merge, GC) dominate.
	{
		name:    "many-jobs",
		workers: 2,
		pool:    2000,
		jobs:    500,
		options: func(float64) []legato.Option {
			return []legato.Option{legato.WithWorkers(2), legato.WithPolicy(legato.MinEnergy)}
		},
		gen: genChains,
	},
	// Every placement goes through the watt ledger, the governor, the
	// straggler watchdog, hedge races and fault recovery.
	{
		name:    "power-faults",
		workers: 1,
		pool:    1000,
		jobs:    250,
		options: func(capW float64) []legato.Option {
			return []legato.Option{
				legato.WithWorkers(1),
				legato.WithPolicy(legato.MinTime),
				legato.WithPowerCap(capW),
				legato.WithGovernor(legato.PackAndThrottle),
				legato.WithHedging(legato.HedgePolicy{Multiplier: 1.5}),
				legato.WithDeadlineMode(legato.DeadlineShed),
				legato.WithFaults(powerFaultsPlan),
			}
		},
		gen:         genPowerFaults,
		powerFaults: true,
	},
	// The many-jobs graphs with the event bus armed, logged, counted and
	// exported, so publication and export costs show.
	{
		name:    "observed",
		workers: 2,
		pool:    1000,
		jobs:    250,
		options: func(float64) []legato.Option {
			return []legato.Option{legato.WithWorkers(2), legato.WithPolicy(legato.MinEnergy), legato.WithEventLog()}
		},
		gen:      genChains,
		observed: true,
	},
}

// powerFaultsPlan silently slows the x86 microservers 4× early on every
// job's clock, with their capacity kept, so only the straggler watchdog
// notices; and crashes one ARM device. The plan is part of the workload, not
// of the seed, so every seed exercises the same failure timeline: plan seed
// 42 crashes the ARMv8 server first, 0.69 s into the first job of a session,
// while that job's 4-core chain runs on it, so tasks are retried.
var powerFaultsPlan = faults.Plan{
	DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
	DegradeTo:       1.0,
	DegradeSlowdown: 4.0,
	MTBF:            ft.MTBFModel{hw.CPUARM: 1},
	MaxCrashes:      1,
	Seed:            42,
}

// checkpointLevel is the FTI level of the power-faults checkpoints.
const checkpointLevel = fti.L1

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genJobs generates the workload's jobs from the seed.
func genJobs(w *workload, seed int64, jobs int) []jobSpec {
	r := rand.New(rand.NewSource(seed))
	specs := make([]jobSpec, jobs)
	for i := range specs {
		name := fmt.Sprintf("j%d", i)
		specs[i] = w.gen(r, name)
		specs[i].name = name
	}
	return specs
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

const regionBytes = 4096

// genWideDAG: 10 layers × 200 tasks; each task reads 2 random outputs of
// the previous layer (layer 0 reads the 8 sources), needs 2–8 cores of an
// x86 or ARM CPU, priority 0–3, 5–45 Gops.
func genWideDAG(r *rand.Rand, name string) jobSpec {
	const layers, width, sources = 10, 200, 8
	var s jobSpec
	for i := 0; i < sources; i++ {
		s.regions = append(s.regions, region{fmt.Sprintf("%s/src%d", name, i), regionBytes})
	}
	prevLo, prevN := 0, sources
	for l := 0; l < layers; l++ {
		lo := len(s.regions)
		for k := 0; k < width; k++ {
			s.regions = append(s.regions, region{fmt.Sprintf("%s/l%d/d%d", name, l, k), regionBytes})
			a, b := prevLo+r.Intn(prevN), prevLo+r.Intn(prevN)
			in := []int{a}
			if b != a {
				in = append(in, b)
			}
			s.tasks = append(s.tasks, taskSpec{
				name:     fmt.Sprintf("%s/l%d/t%d", name, l, k),
				gops:     uniform(r, 5, 45),
				cores:    2 + r.Intn(7),
				on:       []hw.Class{hw.CPUx86, hw.CPUARM},
				in:       in,
				out:      lo + k,
				priority: r.Intn(4),
			})
		}
		prevLo, prevN = lo, width
	}
	return s
}

// genChains: 4 independent chains × 6 single-core tasks of 10–40 Gops;
// each task is replicated (DMR) with probability 0.1 and secure with
// probability 0.1.
func genChains(r *rand.Rand, name string) jobSpec {
	const chains, depth = 4, 6
	var s jobSpec
	for c := 0; c < chains; c++ {
		prev := len(s.regions)
		s.regions = append(s.regions, region{fmt.Sprintf("%s/c%d/d0", name, c), regionBytes})
		for i := 0; i < depth; i++ {
			out := len(s.regions)
			s.regions = append(s.regions, region{fmt.Sprintf("%s/c%d/d%d", name, c, i+1), regionBytes})
			s.tasks = append(s.tasks, taskSpec{
				name:       fmt.Sprintf("%s/c%d/t%d", name, c, i),
				gops:       uniform(r, 10, 40),
				cores:      1,
				in:         []int{prev},
				out:        out,
				replicated: r.Float64() < 0.1,
				secure:     r.Float64() < 0.1,
			})
			prev = out
		}
	}
	return s
}

// genPowerFaults: 6 chains × 5 tasks: a 1024-core GPU burst, three 16-core
// chains (only the x86 microservers fit them), a 4-core chain and a
// low-priority single-core chain whose tasks carry a deadline.
func genPowerFaults(r *rand.Rand, name string) jobSpec {
	const depth = 5
	type chain struct {
		cores    int
		on       []hw.Class
		lo, hi   float64
		priority int
		deadline time.Duration
	}
	chains := []chain{
		{cores: 1024, on: []hw.Class{hw.GPU}, lo: 400, hi: 1200, priority: 2},
		{cores: 16, lo: 100, hi: 300, priority: 2},
		{cores: 16, lo: 100, hi: 300, priority: 2},
		{cores: 16, lo: 100, hi: 300, priority: 2},
		{cores: 4, on: []hw.Class{hw.CPUx86, hw.CPUARM}, lo: 20, hi: 60, priority: 1},
		{cores: 1, on: []hw.Class{hw.CPUx86, hw.CPUARM}, lo: 5, hi: 15, priority: 0, deadline: 1500 * time.Millisecond},
	}
	var s jobSpec
	for c, ch := range chains {
		prev := len(s.regions)
		s.regions = append(s.regions, region{fmt.Sprintf("%s/c%d/d0", name, c), regionBytes})
		for i := 0; i < depth; i++ {
			out := len(s.regions)
			s.regions = append(s.regions, region{fmt.Sprintf("%s/c%d/d%d", name, c, i+1), regionBytes})
			s.tasks = append(s.tasks, taskSpec{
				name:     fmt.Sprintf("%s/c%d/t%d", name, c, i),
				gops:     uniform(r, ch.lo, ch.hi),
				cores:    ch.cores,
				on:       ch.on,
				in:       []int{prev},
				out:      out,
				priority: ch.priority,
				deadline: ch.deadline,
			})
			prev = out
		}
	}
	return s
}
