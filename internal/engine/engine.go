// Package engine implements the concurrent multi-job execution engine of
// the LEGaTO stack: a long-lived worker pool that runs many independent
// task graphs ("jobs") in parallel over one shared heterogeneous fleet.
// This is the managed-platform half of the paper's Fig. 2 — the task
// runtime below stays a single-clock scheduler, and this layer multiplexes
// many of them over the hardware:
//
//   - every job owns a private virtual clock (sim.Engine) and its own
//     per-device run state over the one reference fleet, which every job
//     reads and none writes, so its schedule and energy accounting are
//     isolated and deterministic;
//   - one fleet ledger (power.Ledger, behind taskrt.Admission) arbitrates
//     the real device cores and the watt budget between jobs, so the union
//     of all placements never oversubscribes a device or breaches the cap;
//   - jobs are context-aware end to end: submission contexts carry
//     cancellation and per-job deadlines into the scheduler loop, and
//     Shutdown drains gracefully;
//   - the engine holds a job only while it is queued or running: once it
//     is terminal, its runtime and trace live as long as the caller's
//     handle does, so a long session does not grow with the jobs it ran.
//
// Fleet-time accounting: the engine maintains one virtual "lane" per
// worker and charges each completed job's makespan to the least-loaded
// lane (greedy list scheduling, independent of which goroutine happened to
// execute the job). The session makespan is the maximum lane clock: with
// one worker this degenerates to serial submission (sum of job makespans);
// with a full-width pool independent jobs overlap and the session makespan
// approaches the slowest job. The overlap is an honest estimate of fleet
// occupancy whenever admission never stalled (Stats.AdmissionStalls = 0,
// i.e. the fleet really could host the concurrent jobs side by side);
// under contention it is a lower bound, and the stall counter says so.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"legato/internal/energy"
	"legato/internal/faults"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
	"legato/internal/trace"
)

// Typed submission errors, matchable with errors.Is.
var (
	// ErrShutdown is returned by Submit after Shutdown began.
	ErrShutdown = errors.New("engine: shut down")
	// ErrQueueFull is returned by Submit when the queue is at capacity.
	ErrQueueFull = errors.New("engine: queue full")
	// ErrAlreadySubmitted is returned by Submit for a non-Building job.
	ErrAlreadySubmitted = errors.New("engine: job already submitted")
)

// Config parametrises an Engine.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 4).
	Workers int
	// QueueDepth bounds the submission queue (default 4096).
	QueueDepth int
	// Policy is the placement objective used by every job's scheduler.
	Policy taskrt.Policy
	// Fleet lists the reference devices (required): the shared capacity
	// the ledger arbitrates and the devices every job schedules over. Jobs
	// only read them.
	Fleet []*hw.Device
	// Registry receives per-job and per-device counters (optional).
	Registry *monitor.Registry
	// Bus receives typed runtime events from every job's lifecycle sink
	// and the fault injector (optional). A nil bus costs nothing; a bus
	// with no listener costs one atomic load per would-be event.
	Bus *obs.Bus
	// Faults, when non-nil and enabled, drives an MTBF-based failure
	// process over the session: the sampled timeline is replayed on every
	// job's private clock, and the injector applies each global fault
	// (fleet capacity loss) exactly once.
	Faults *faults.Plan
	// RetryBudget is the default per-task failure attempt budget under
	// fault injection (default 3); Task.Retry overrides per task.
	RetryBudget int
	// RetryBackoff is the base re-placement backoff, doubled on every
	// consecutive failure (default 1ms of virtual time).
	RetryBackoff sim.Time
	// PowerCapW bounds the modelled fleet draw (static idle power of every
	// healthy device plus all granted dynamic task power) in watts; zero or
	// negative means uncapped. Placements that would breach the cap park on
	// the power ledger exactly like core-admission stalls.
	PowerCapW float64
	// Governor selects how the power ledger reshapes device operating
	// points under cap pressure (default power.RaceToIdle).
	Governor power.Kind
	// Hedge arms tail-tolerant execution on every job: a virtual-clock
	// watchdog flags executions exceeding Hedge.Multiplier × their cost-
	// model expectation and races a speculative replica on a different
	// device, admitted through the same core and watt ledgers.
	Hedge taskrt.HedgePolicy
	// DeadlineMode selects how missed task deadlines are handled (default
	// taskrt.DeadlineStrict: the job fails with ErrDeadlineExceeded).
	DeadlineMode taskrt.DeadlineMode
}

// State is a job's lifecycle phase.
type State int

const (
	// Building: tasks are still being submitted to the job.
	Building State = iota
	// Queued: submitted to the engine, waiting for a worker.
	Queued
	// Running: a worker is executing the job's graph.
	Running
	// Done: completed successfully; the result is available.
	Done
	// Failed: aborted with a non-context error.
	Failed
	// Cancelled: aborted by context cancellation or deadline.
	Cancelled
)

// String names the state.
func (s State) String() string {
	switch s {
	case Building:
		return "building"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one task graph scheduled by the engine. The engine forgets a job
// once it is terminal: only the caller's *Job keeps its runtime, graph and
// spans alive.
type Job struct {
	ID   int
	Name string

	rt   *taskrt.Runtime
	fold *obs.SpanFold // the job's spans, built on the goroutine driving it
	eng  *Engine

	mu      sync.Mutex
	state   State
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
	result  *taskrt.Result
	err     error
	done    chan struct{}
	// inflightIdx indexes Engine.inflight while queued or running (Engine.mu).
	inflightIdx int
}

// Runtime exposes the job's private scheduler for task submission. It must
// not be touched after Submit.
func (j *Job) Runtime() *taskrt.Runtime { return j.rt }

// Spans returns the spans the job's lifecycle events folded into, on the
// job's virtual clock, or nil until Done is closed: the fold is complete
// then, so reading it never races the goroutine that drove the job. The
// slice is the fold's own; do not modify it.
func (j *Job) Spans() []trace.Span {
	select {
	case <-j.done:
		return j.fold.Spans()
	default:
		return nil
	}
}

// SetTimeout sets a per-job wall-clock budget applied from the moment the
// job is submitted; zero means no deadline. Must be called before Submit.
func (j *Job) SetTimeout(d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.timeout = d
}

// State reports the job's lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel aborts the job; a no-op before submission or after completion.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx fires, and returns the job's
// result. A ctx abort leaves the job running; use Cancel to stop it.
// Completion wins over a simultaneously-fired ctx, so a result that exists
// is always returned — the caller never observes a ctx error for a job
// that already reached a terminal state.
func (j *Job) Wait(ctx context.Context) (*taskrt.Result, error) {
	select {
	case <-j.done:
	default:
		select {
		case <-j.done:
		case <-ctx.Done():
			// Re-check: if the job completed while we were racing with the
			// context, prefer the terminal state.
			select {
			case <-j.done:
			default:
				return nil, ctx.Err()
			}
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

func (j *Job) finish(res *taskrt.Result, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = Done
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = Cancelled
	default:
		j.state = Failed
	}
	j.result, j.err = res, err
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	close(j.done)
}

// Stats summarises a session.
type Stats struct {
	JobsSubmitted, JobsCompleted, JobsFailed, JobsCancelled int
	// TasksCompleted counts task executions across all completed jobs.
	TasksCompleted int
	// EnergyJ sums dynamic task energy across all completed jobs.
	EnergyJ float64
	// PlatformEnergyJ adds to EnergyJ and HedgeWastedJ each device's
	// static (idle) draw up to the session makespan, or up to its loss by
	// the fault plan on the fleet clock when that comes first — what the
	// electricity meter would read, not just the task increments.
	PlatformEnergyJ float64
	// AvgPowerW is PlatformEnergyJ over the session makespan.
	AvgPowerW float64
	// PowerCapW echoes the configured cap (0 = uncapped).
	PowerCapW float64
	// PeakDrawW is the high-water mark of the modelled fleet draw — the
	// peak-draw witness: never above PowerCapW when a cap is armed.
	PeakDrawW float64
	// PowerStalls counts placements refused by the watt budget.
	PowerStalls uint64
	// GovernorRescales counts DVFS operating-point changes made by the
	// governor under cap pressure.
	GovernorRescales uint64
	// TotalJobTime is the sum of job makespans — the fleet time serial
	// submission would need.
	TotalJobTime sim.Time
	// SessionMakespan is the fleet time the engine actually needed (max
	// worker fleet clock).
	SessionMakespan sim.Time
	// AdmissionStalls counts failed admission attempts (contention).
	AdmissionStalls uint64
	// DevicesLost counts devices crashed by the failure process.
	DevicesLost int
	// Counts sums the lifecycle tallies of all completed jobs.
	obs.Counts
}

// Speedup is the throughput gain of the session over serial submission.
func (s Stats) Speedup() float64 {
	if s.SessionMakespan <= 0 {
		return 1
	}
	return float64(s.TotalJobTime) / float64(s.SessionMakespan)
}

// Engine is the long-lived multi-job engine.
type Engine struct {
	cfg      Config
	fleet    *power.Ledger
	ref      []*hw.Device
	injector *faults.Injector // nil without a fault plan
	queue    chan *Job
	wg       sync.WaitGroup

	mu       sync.Mutex
	inflight []*Job // queued and running jobs, in no order (see Job.inflightIdx)
	nextID   int
	closed   bool
	lanes    []sim.Time // per-slot fleet clocks (see package doc)
	losses   []loss     // fault-plan crashes, in the order jobs crossed them
	stats    Stats
}

// loss is a device crash of the fault plan. It happens at the plan's
// instant on the clock of the first job to cross it, so it lands on the
// fleet clock once that job is accounted and its fleet start is known.
type loss struct {
	dev string
	job *Job     // the crossing job; nil once at is on the fleet clock
	at  sim.Time // on job's clock while job is set, then on the fleet clock
}

// New starts an engine with its worker pool. The caller must eventually
// call Shutdown to drain it.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("engine: Config.Fleet is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	ref := cfg.Fleet
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	fleet := power.NewLedger(energy.Watts(cfg.PowerCapW), ref, cfg.Governor)
	if fleet.Capped() && fleet.Cap() <= fleet.IdleWatts() {
		// The idle floor alone exhausts the budget: every placement would
		// park forever, rescuable only by cancellation.
		return nil, fmt.Errorf("engine: power cap %v W leaves no headroom over the fleet's %v W idle floor",
			fleet.Cap(), fleet.IdleWatts())
	}
	e := &Engine{
		cfg:   cfg,
		fleet: fleet,
		ref:   ref,
		queue: make(chan *Job, cfg.QueueDepth),
		lanes: make([]sim.Time, cfg.Workers),
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		e.injector = faults.NewInjector(*cfg.Faults, e.fleet, ref, cfg.Registry)
	}
	e.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go e.worker()
	}
	return e, nil
}

// Fleet exposes the shared fleet ledger: cores, watts and liveness of
// every device (uncapped when no PowerCapW was configured).
func (e *Engine) Fleet() *power.Ledger { return e.fleet }

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.cfg.Workers }

// NewJob creates an empty job with a private clock, scheduling over the
// shared fleet. Submit tasks through Runtime(), then hand the job to
// Submit.
func (e *Engine) NewJob(name string) (*Job, error) {
	clock := sim.NewEngine()
	rt := taskrt.New(clock, e.ref, e.cfg.Policy, e.fleet)
	rt.SetHedging(e.cfg.Hedge)
	rt.SetDeadlineMode(e.cfg.DeadlineMode)

	e.mu.Lock()
	e.nextID++
	j := &Job{
		ID: e.nextID, Name: name,
		rt: rt, fold: obs.NewSpanFold(e.fleetDrawW), eng: e,
		done: make(chan struct{}),
	}
	e.mu.Unlock()

	rt.SetSink(e.sink(j))
	return j, nil
}

// sink returns the job's lifecycle sink: every event the runtime emits is
// stamped with the job's name, folded into the registry counters and the
// job's spans, and published on the session bus. It runs on the goroutine
// driving the job; the bus serializes publication, and with no listener
// publishing is one atomic load.
func (e *Engine) sink(j *Job) func(obs.Event) {
	var counters *RegistryFold
	if e.cfg.Registry != nil {
		counters = NewRegistryFold(e.cfg.Registry, j.Name)
	}
	bus := e.cfg.Bus
	return func(ev obs.Event) {
		ev.Job = j.Name
		if counters != nil {
			counters.Apply(ev)
		}
		j.fold.Apply(ev)
		bus.Publish(ev)
	}
}

// fleetDrawW samples the fleet ledger's draw for the job traces' power
// series.
func (e *Engine) fleetDrawW() float64 { return float64(e.fleet.Draw()) }

// RegistryFold folds one job's lifecycle events into registry counters:
// the "job/<name>" scope; the per-device task, energy, busy-time,
// straggler, hedge-hosting and loss counters of "device/<id>"; and the
// session-wide "tail" and "faults" counters. The fold keeps only what the
// events imply: a completed task's start is its last TaskStarted, and a
// device loss's restores are the "restore" TaskRetried events just before
// it. Replaying a job's logged events through a fresh fold rebuilds what
// the live fold wrote.
type RegistryFold struct {
	reg      *monitor.Registry
	scope    string
	started  map[string]sim.Time // launch instant of each running task
	restored int                 // restores re-queued since the last DeviceLost
}

// NewRegistryFold starts a fold for the named job.
func NewRegistryFold(reg *monitor.Registry, job string) *RegistryFold {
	return &RegistryFold{reg: reg, scope: "job/" + job, started: make(map[string]sim.Time)}
}

// Apply folds one event.
func (f *RegistryFold) Apply(e obs.Event) {
	reg, scope := f.reg, f.scope
	switch e.Kind {
	case obs.TaskQueued:
		reg.Add(scope, "tasks-queued", 1)
	case obs.TaskStarted:
		f.started[e.Task] = e.At
		reg.Add(scope, "tasks-running", 1)
	case obs.TaskCompleted:
		start := f.started[e.Task]
		delete(f.started, e.Task)
		reg.Add(scope, "tasks-running", -1)
		reg.Add(scope, "tasks-completed", 1)
		reg.Add(scope, "energy-J", e.Value)
		dev := "device/" + e.Device
		reg.Add(dev, "tasks-completed", 1)
		reg.Add(dev, "energy-J", e.Value)
		reg.Add(dev, "busy-s", sim.ToSeconds(e.At-start))
	case obs.TaskShed:
		// A shed task never started: no running decrement, no device
		// attribution.
		reg.Add(scope, "tasks-shed", 1)
		reg.Add("tail", "tasks-shed", 1)
	case obs.TaskRetried:
		reg.Add(scope, "task-retries", 1)
		reg.Add("faults", "task-retries", 1)
		reg.Add("faults", "retry-"+e.Detail, 1)
		if e.Detail == "restore" {
			f.restored++
		}
	case obs.TaskFailed:
		reg.Add(scope, "tasks-failed", 1)
		reg.Add("faults", "tasks-failed", 1)
	case obs.DeviceLost:
		restored := float64(f.restored)
		f.restored = 0
		reg.Add(scope, "device-lost", 1)
		reg.Add(scope, "tasks-revoked", e.Value)
		reg.Add(scope, "tasks-restored", restored)
		reg.Add("device/"+e.Device, "lost", 1)
		reg.Add("faults", "tasks-revoked", e.Value)
		reg.Add("faults", "tasks-restored", restored)
	case obs.CheckpointBegin:
		reg.Add(scope, "checkpoint-bytes", e.Value)
	case obs.CheckpointCommit:
		reg.Add(scope, "checkpoints", 1)
		reg.Add("faults", "checkpoints", 1)
	case obs.HedgeArmed:
		reg.Add(scope, "stragglers-detected", 1)
		reg.Add("tail", "stragglers-detected", 1)
		reg.Add("device/"+e.Device, "stragglers", 1)
	case obs.HedgeLaunched:
		reg.Add(scope, "hedges-launched", 1)
		reg.Add("tail", "hedges-launched", 1)
		reg.Add("device/"+e.Device, "hedges-hosted", 1)
	case obs.HedgeWon, obs.HedgeCancelled:
		if e.Kind == obs.HedgeWon {
			reg.Add(scope, "hedges-won", 1)
			reg.Add("tail", "hedges-won", 1)
		}
		reg.Add(scope, "hedge-wasted-J", e.Value)
		reg.Add("tail", "hedge-wasted-J", e.Value)
	case obs.HedgePromoted:
		reg.Add("tail", "hedges-promoted", 1)
	case obs.HedgeDenied:
		// Session scope only, so denials add no registry key per job.
		reg.Add("tail", "hedges-denied", 1)
	case obs.DeadlineMissed:
		reg.Add(scope, "deadline-misses", 1)
		reg.Add("tail", "deadline-misses", 1)
	}
}

// wireFaults replays the injector's sampled timeline on the job's private
// clock. Each event fails (or degrades) the device in the job's runtime so
// local placement routes around it, and calls into the injector, which
// applies the *global* fleet change exactly once across all jobs. It runs
// when the job starts, not when it is built: a job that starts after a
// device already crashed starts with that device lost, silently — the
// graceful-degradation path: the session keeps admitting jobs that fit the
// surviving fleet.
func (e *Engine) wireFaults(j *Job) {
	if e.injector == nil {
		return
	}
	j.rt.SetRetryPolicy(e.cfg.RetryBudget, e.cfg.RetryBackoff)
	sampler := e.injector.Sampler(int64(j.ID))
	j.rt.SetCorruptor(func(rec taskrt.Record) bool {
		return sampler(rec.Class, power.SDCProbability(rec.Undervolt))
	})
	for _, ev := range e.injector.Events() {
		ev := ev
		switch ev.Kind {
		case faults.Crash:
			if e.injector.Lost(ev.Device) {
				j.rt.MarkLost(ev.Device)
				continue
			}
			rt := j.rt
			j.rt.ScheduleFault(ev.At, func() {
				if e.injector.Crash(ev.Device) {
					// First job across the event time: the global fault is
					// applied now, so it is recorded and published exactly
					// once.
					e.mu.Lock()
					e.losses = append(e.losses, loss{dev: ev.Device, job: j, at: ev.At})
					e.mu.Unlock()
					e.publishFault(j, ev)
				}
				rt.FailDevice(ev.Device)
			})
		case faults.Degrade:
			rt := j.rt
			j.rt.ScheduleFault(ev.At, func() {
				// Apply the global capacity shrink exactly once, then the
				// silent latency stretch in this job's own runtime state —
				// every job crossing the event time observes the slowdown,
				// and none of their schedulers can see it coming.
				if e.injector.Degrade(ev) {
					e.publishFault(j, ev)
				}
				if ev.Slowdown > 1 {
					rt.DegradeDevice(ev.Device, ev.Slowdown)
				}
			})
		}
	}
}

// publishFault emits the FaultInjected event for a globally-applied
// fault, attributed to the job whose clock first crossed the event time.
// Degrades carry the silent slowdown factor as the value.
func (e *Engine) publishFault(j *Job, ev faults.Event) {
	bus := e.cfg.Bus
	if !bus.Active() {
		return
	}
	val := 0.0
	if ev.Kind == faults.Degrade {
		val = ev.Slowdown
	}
	bus.Publish(obs.Event{At: ev.At, Kind: obs.FaultInjected, Job: j.Name, Device: ev.Device, Value: val, Detail: ev.Kind.String()})
}

// Submit queues a job for execution under ctx; the job additionally
// honours any per-job timeout set with SetTimeout.
func (e *Engine) Submit(ctx context.Context, j *Job) error {
	if j.eng != e {
		return fmt.Errorf("engine: job %q belongs to a different engine", j.Name)
	}
	j.mu.Lock()
	if j.state != Building {
		j.mu.Unlock()
		return fmt.Errorf("engine: job %q in state %s: %w", j.Name, j.state, ErrAlreadySubmitted)
	}
	if j.timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(ctx)
	}
	j.state = Queued
	j.mu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.finish(nil, ErrShutdown)
		return ErrShutdown
	}
	e.stats.JobsSubmitted++
	select {
	case e.queue <- j:
		j.inflightIdx = len(e.inflight)
		e.inflight = append(e.inflight, j)
		e.mu.Unlock()
		return nil
	default:
		e.stats.JobsSubmitted--
		e.mu.Unlock()
		j.finish(nil, ErrQueueFull)
		return fmt.Errorf("engine: queue holds %d jobs: %w", e.cfg.QueueDepth, ErrQueueFull)
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.runJob(j)
	}
}

func (e *Engine) runJob(j *Job) {
	j.mu.Lock()
	ctx := j.ctx
	if err := ctx.Err(); err != nil {
		j.mu.Unlock()
		e.account(j, nil, err)
		return
	}
	j.state = Running
	j.mu.Unlock()

	e.wireFaults(j)
	res, err := j.rt.RunContext(ctx)
	e.account(j, res, err)
}

// account charges the job's makespan to the least-loaded fleet lane and
// updates session statistics, then completes the job.
func (e *Engine) account(j *Job, res *taskrt.Result, err error) {
	e.mu.Lock()
	lane := 0
	for i, c := range e.lanes {
		if c < e.lanes[lane] {
			lane = i
		}
	}
	start := e.lanes[lane]
	if res != nil {
		e.lanes[lane] += res.Makespan
		e.stats.TotalJobTime += res.Makespan
		e.stats.TasksCompleted += len(res.Records)
		e.stats.EnergyJ += float64(res.EnergyJ)
		e.stats.Add(res.Counts)
	}
	switch {
	case err == nil:
		e.stats.JobsCompleted++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.stats.JobsCancelled++
	default:
		e.stats.JobsFailed++
	}
	for i := range e.losses {
		if l := &e.losses[i]; l.job == j {
			l.job, l.at = nil, start+l.at
		}
	}
	last := len(e.inflight) - 1
	e.inflight[j.inflightIdx], e.inflight[last].inflightIdx = e.inflight[last], j.inflightIdx
	e.inflight[last] = nil
	e.inflight = e.inflight[:last]
	e.mu.Unlock()

	if reg := e.cfg.Registry; reg != nil {
		scope := "job/" + j.Name
		if res != nil {
			reg.Set(scope, "makespan-s", sim.ToSeconds(res.Makespan))
			reg.Set(scope, "energy-total-J", float64(res.EnergyJ))
		}
		reg.Set(scope, "fleet-start-s", sim.ToSeconds(start))
		// The ledger is built over e.ref, so draws follows its order.
		draws := make([]energy.Watts, len(e.ref))
		m := e.fleet.Read(draws)
		reg.Set("power", "draw-W", float64(m.Draw))
		reg.Set("power", "peak-draw-W", float64(m.PeakDraw))
		reg.Set("power", "idle-W", float64(m.IdleWatts))
		reg.Set("power", "stalls", float64(m.WattStalls))
		reg.Set("power", "governor-rescales", float64(m.Rescales))
		if e.fleet.Capped() {
			reg.Set("power", "cap-W", float64(e.fleet.Cap()))
		}
		for i, d := range e.ref {
			reg.Set("device/"+d.ID, "draw-W", float64(draws[i]))
		}
	}
	j.finish(res, err)
}

// Stats snapshots the session counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	for _, c := range e.lanes {
		if c > s.SessionMakespan {
			s.SessionMakespan = c
		}
	}
	m := e.fleet.Read(nil)
	s.AdmissionStalls = m.CoreStalls
	if e.injector != nil {
		s.DevicesLost = e.injector.Crashes()
	}
	if e.fleet.Capped() {
		s.PowerCapW = float64(e.fleet.Cap())
	}
	s.PeakDrawW = float64(m.PeakDraw)
	s.PowerStalls = m.WattStalls
	s.GovernorRescales = m.Rescales
	sec := sim.ToSeconds(s.SessionMakespan)
	// The meter reads idle floor + committed task energy + energy burned by
	// cancelled hedge losers: speculation is not free, and the E14 gate
	// bounds exactly this term. A device the fault plan crashed draws its
	// idle floor only up to the crash.
	idleW, lostJ := 0.0, 0.0
	for _, d := range e.ref {
		if at, ok := e.lostAt(d.ID); ok && at < s.SessionMakespan {
			lostJ += d.Spec.IdleWatts * sim.ToSeconds(at)
			continue
		}
		idleW += d.Spec.IdleWatts
	}
	s.PlatformEnergyJ = idleW*sec + lostJ + s.EnergyJ + s.HedgeWastedJ
	if sec > 0 {
		s.AvgPowerW = s.PlatformEnergyJ / sec
	}
	return s
}

// lostAt returns the fleet-clock instant the fault plan crashed a device,
// once the crossing job is accounted. Call with e.mu held.
func (e *Engine) lostAt(id string) (sim.Time, bool) {
	for _, l := range e.losses {
		if l.dev == id && l.job == nil {
			return l.at, true
		}
	}
	return 0, false
}

// Shutdown stops accepting jobs and drains the pool: already-queued jobs
// still run. If ctx fires first, every queued and running job is cancelled
// and Shutdown returns the context error once the workers exit.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Jobs leave the set in account, under e.mu: it holds still here.
		e.mu.Lock()
		for _, j := range e.inflight {
			j.Cancel()
		}
		e.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}
