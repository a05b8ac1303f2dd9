package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"legato/internal/engine"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/fti"
	"legato/internal/monitor"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// --- E12: resilient multi-job session under MTBF-driven device loss -----

// ResilientResult is the outcome of the E12 study: the same multi-job
// session as E11, run once fault-free and once under an MTBF-driven
// failure process that crashes exactly one device mid-traffic, with every
// job checkpointing asynchronously. The gate the benchmark enforces:
// every job completes, makespan inflation stays ≤ 1.5×, admission never
// oversubscribes a device, and the recovery counters are nonzero.
type ResilientResult struct {
	Jobs, Workers int
	// Seed is the fault-plan seed the deterministic search settled on.
	Seed int64
	// SeedsTried counts fault sessions run before one produced a
	// mid-traffic device loss with observable recovery work.
	SeedsTried int
	// LostDevice is the device crashed by the failure process.
	LostDevice string
	// CrashAt is the sampled crash time on the jobs' virtual clocks.
	CrashAt sim.Time
	// BaselineMakespan is the fault-free session fleet time (E11 shape).
	BaselineMakespan sim.Time
	// FaultMakespan is the session fleet time under the failure process.
	FaultMakespan sim.Time
	// InflationX is FaultMakespan / BaselineMakespan.
	InflationX float64
	// JobsCompleted of Jobs submitted; a resilient session completes all.
	JobsCompleted int
	Crashes       int
	Retries       int
	Restores      int
	Checkpoints   int
	// PeakViolations counts devices whose admission peak exceeded their
	// capacity — the oversubscription witness; must be zero.
	PeakViolations int
	// Registry holds the fault session's counters ("faults" scope and
	// per-job/per-device scopes).
	Registry *monitor.Registry
}

// resilientGraph is the E12 per-job workload: the E11 shape (4 chains × 5
// tasks) with 1 MiB output regions so the FTI cost model has real bytes to
// price. Four chains matter for the gate: the MinTime policy concentrates
// 1-core tasks on the best per-core device, and after that device is lost
// the four chains still fit the next-best device side by side — the
// re-placed schedule degrades by the device-speed ratio, not by queueing
// collapse onto slow CPUs.
func resilientGraph(rt *taskrt.Runtime, name string) error {
	return multiJobGraphSized(rt, name, 4, 5, 1<<20)
}

// multiJobGraphSized is multiJobGraph with a per-region byte size.
func multiJobGraphSized(rt *taskrt.Runtime, name string, chains, depth int, bytes int64) error {
	for c := 0; c < chains; c++ {
		prev := rt.Data(fmt.Sprintf("%s/c%d/d0", name, c), bytes)
		for i := 0; i < depth; i++ {
			next := rt.Data(fmt.Sprintf("%s/c%d/d%d", name, c, i+1), bytes)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("%s/c%d/t%d", name, c, i),
				Gops: 25, Cores: 1,
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

// resilientSession runs one `jobs`-job session on the cloud fleet with the
// given fault plan (nil = fault-free) and returns the engine stats plus
// per-device peak/capacity from the ledger.
func resilientSession(jobs, workers int, plan *faults.Plan, ckptEvery int, reg *monitor.Registry) (engine.Stats, *power.Ledger, error) {
	e, err := engine.New(engine.Config{
		Workers:     workers,
		Policy:      taskrt.MinTime,
		NewPlatform: cloudFleet,
		Registry:    reg,
		Faults:      plan,
	})
	if err != nil {
		return engine.Stats{}, nil, err
	}
	ctx := context.Background()
	var js []*engine.Job
	for n := 0; n < jobs; n++ {
		j, err := e.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			return engine.Stats{}, nil, err
		}
		if ckptEvery > 0 {
			j.Runtime().SetCheckpoint(ckptEvery,
				func(bytes int64) sim.Time { return fti.LevelCost(fti.L1, bytes) },
				func(bytes int64) sim.Time { return fti.RestoreCost(fti.L1, bytes) })
		}
		if err := resilientGraph(j.Runtime(), j.Name); err != nil {
			return engine.Stats{}, nil, err
		}
		js = append(js, j)
		if err := e.Submit(ctx, j); err != nil {
			return engine.Stats{}, nil, err
		}
	}
	for _, j := range js {
		if _, err := j.Wait(ctx); err != nil {
			return engine.Stats{}, nil, fmt.Errorf("job %s: %w", j.Name, err)
		}
	}
	st := e.Stats()
	fleet := e.Fleet()
	if err := e.Shutdown(ctx); err != nil {
		return engine.Stats{}, nil, err
	}
	return st, fleet, nil
}

// Resilient runs the E12 study: an 8-job session (E11 shape, wider graphs)
// first fault-free for the baseline, then under an MTBF-driven failure
// process bounded to a single device crash, with async L1 checkpoints
// every 4 task completions. The per-class MTBF is set to the baseline
// session length, so a crash within the session is likely but not pinned;
// a deterministic seed search (seed, seed+1, ...) keeps the first fault
// session whose crash lands inside (0, baseline) *and* produces observable
// recovery work (revoked or restored tasks). The search is bounded; the
// virtual clock makes every candidate session deterministic.
func Resilient(jobs, workers int, seed int64) (*ResilientResult, error) {
	baseReg := monitor.NewRegistry()
	base, _, err := resilientSession(jobs, workers, nil, 0, baseReg)
	if err != nil {
		return nil, fmt.Errorf("experiments: E12 baseline: %w", err)
	}
	if base.SessionMakespan <= 0 {
		return nil, fmt.Errorf("experiments: E12 baseline produced no makespan")
	}
	// Devices the fault-free schedule actually used: a crash only exercises
	// recovery when it lands on busy silicon, so the seed search screens the
	// sampled timeline against this set before paying for a session.
	busy := map[string]bool{}
	for _, scope := range baseReg.Scopes() {
		if strings.HasPrefix(scope, "device/") && baseReg.ScopeSnapshot(scope)["tasks-completed"] > 0 {
			busy[strings.TrimPrefix(scope, "device/")] = true
		}
	}
	mtbfSec := sim.ToSeconds(base.SessionMakespan)
	model := ft.MTBFModel{}
	for class := range ft.DefaultMTBFModel() {
		model[class] = mtbfSec
	}
	refClock := sim.NewEngine()
	ref, err := cloudFleet(refClock)
	if err != nil {
		return nil, err
	}

	const maxSeeds = 512
	for s := seed; s < seed+maxSeeds; s++ {
		plan := faults.Plan{MTBF: model, MaxCrashes: 1, Seed: s}
		// Pre-screen the sampled timeline: the single crash must hit a
		// device the schedule uses, mid-traffic (not in the session's first
		// instants nor after the work has drained).
		events := plan.Schedule(ref)
		if len(events) == 0 || !busy[events[0].Device] {
			continue
		}
		if events[0].At < base.SessionMakespan/20 || events[0].At > base.SessionMakespan*4/5 {
			continue
		}
		reg := monitor.NewRegistry()
		st, fleet, err := resilientSession(jobs, workers, &plan, 4, reg)
		if err != nil {
			return nil, fmt.Errorf("experiments: E12 fault session (seed %d): %w", s, err)
		}
		if st.TasksRetried+st.TasksRestored == 0 || st.DevicesLost == 0 {
			continue // the crashed device was idle by the crash instant
		}
		violations := 0
		for _, id := range fleet.Devices() {
			if fleet.Peak(id) > fleet.Capacity(id) {
				violations++
			}
		}
		return &ResilientResult{
			Jobs: jobs, Workers: workers,
			Seed: s, SeedsTried: int(s-seed) + 1,
			LostDevice:       events[0].Device,
			CrashAt:          events[0].At,
			BaselineMakespan: base.SessionMakespan,
			FaultMakespan:    st.SessionMakespan,
			InflationX:       float64(st.SessionMakespan) / float64(base.SessionMakespan),
			JobsCompleted:    st.JobsCompleted,
			Crashes:          st.DevicesLost,
			Retries:          st.TasksRetried,
			Restores:         st.TasksRestored,
			Checkpoints:      st.Checkpoints,
			PeakViolations:   violations,
			Registry:         reg,
		}, nil
	}
	return nil, fmt.Errorf("experiments: E12 found no mid-session crash with recovery work in %d seeds from %d", maxSeeds, seed)
}

// ResilientTable renders the E12 result.
func ResilientTable(r *ResilientResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E12: %d jobs, %d workers — single-device loss at %v (%s, seed %d, %d tried)\n",
		r.Jobs, r.Workers, r.CrashAt.Round(time.Microsecond), r.LostDevice, r.Seed, r.SeedsTried)
	fmt.Fprintf(&b, "%-22s %-14s %-10s\n", "", "makespan", "inflation")
	fmt.Fprintf(&b, "%-22s %-14v %-10s\n", "fault-free", r.BaselineMakespan, "1.00x")
	fmt.Fprintf(&b, "%-22s %-14v %-10s\n", "one device lost", r.FaultMakespan,
		fmt.Sprintf("%.2fx", r.InflationX))
	fmt.Fprintf(&b, "jobs completed %d/%d · crashes %d · retries %d · restores %d · checkpoints %d · peak violations %d\n",
		r.JobsCompleted, r.Jobs, r.Crashes, r.Retries, r.Restores, r.Checkpoints, r.PeakViolations)
	return b.String()
}
