// Package legato is the public facade of the LEGaTO toolset reproduction
// (B. Salami et al., DATE 2020): a single programming model over a
// heterogeneous platform in which every task can state its energy, fault
// tolerance and security requirements, exactly as the ecosystem picture of
// paper Fig. 1 promises ("All these requirements will be facilitated by a
// single programming model").
//
// A System wires together the layers of Fig. 2:
//
//   - hardware: a RECS|BOX chassis or Fig. 9 edge server (internal/hw);
//   - runtime: the OmpSs-style dependence-aware task runtime
//     (internal/taskrt) with energy-aware placement;
//   - engine: a concurrent multi-job engine (internal/engine) that runs
//     many independent task graphs in parallel over the shared fleet,
//     with per-device admission so placements never oversubscribe;
//   - fault tolerance: dual-modular replication of critical tasks on
//     diverse device classes with a voting step (internal/ft semantics);
//   - security: tasks may run inside a measured enclave with sealed I/O
//     (internal/secure).
//
// Systems are assembled with functional options and host many jobs:
//
//	sys, _ := legato.NewSystem(legato.WithPlatform(legato.EdgePlatform),
//		legato.WithPolicy(legato.MinEDP))
//	job, _ := sys.NewJob("ingest-batch")
//	raw := job.Data("raw", 1<<20)
//	clean := job.Data("clean", 1<<20)
//	_ = job.Task("preprocess").Gops(120).In(raw).Out(clean).Submit()
//	rep, err := job.Run(ctx)
//
// Jobs are context-aware end to end: Run honours cancellation and
// deadlines, and System.Close drains the engine gracefully.
//
// See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the full system inventory and the API migration table.
package legato

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"legato/internal/energy"
	"legato/internal/engine"
	"legato/internal/faults"
	"legato/internal/fti"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/secure"
	"legato/internal/sim"
	"legato/internal/taskrt"
	"legato/internal/trace"
)

// Typed errors of the public surface, matchable with errors.Is through any
// wrapping layer.
var (
	// ErrGraphFrozen: the job was already handed to the engine; its task
	// graph can no longer be extended (Submit/Task after Start/Run).
	ErrGraphFrozen = errors.New("legato: job graph is frozen")
	// ErrUndeclaredRegion: a task names an input region that was never
	// declared with Job.Data nor produced by an earlier Out clause.
	ErrUndeclaredRegion = errors.New("legato: undeclared data region")
	// ErrJobCancelled: the job itself was cancelled (context cancellation
	// or deadline); Wait returns it wrapped together with the context
	// error, so errors.Is matches either.
	ErrJobCancelled = errors.New("legato: job cancelled")
	// ErrDeviceLost: a task became unplaceable because every device that
	// could host it crashed or lost the capacity to fit it.
	ErrDeviceLost = taskrt.ErrDeviceLost
	// ErrRetriesExhausted: a task failed more times than its attempt
	// budget allows.
	ErrRetriesExhausted = taskrt.ErrRetriesExhausted
	// ErrDeadlineExceeded: a task passed its virtual-clock deadline under
	// the strict deadline mode (see WithDeadlineMode).
	ErrDeadlineExceeded = taskrt.ErrDeadlineExceeded
	// ErrInvalidTask: a task specification was rejected at Submit
	// (non-positive Gops, negative Cores or Retry, non-positive Deadline).
	ErrInvalidTask = taskrt.ErrInvalidTask
)

// Policy re-exports the runtime placement objectives.
type Policy = taskrt.Policy

// Placement policies.
const (
	// MinTime places each task on the device that finishes it soonest.
	MinTime = taskrt.MinTime
	// MinEnergy places each task on the device with the least dynamic energy.
	MinEnergy = taskrt.MinEnergy
	// MinEDP minimises the energy-delay product.
	MinEDP = taskrt.MinEDP
)

// Governor re-exports the power-governor policies reshaping device
// operating points under a fleet power cap.
type Governor = power.Kind

// Governor policies.
const (
	// RaceToIdle keeps devices at nominal frequency; under cap pressure
	// jobs park until siblings release draw (run fast, idle long).
	RaceToIdle = power.RaceToIdle
	// PackAndThrottle steps devices down their DVFS ladder under cap
	// pressure, fitting more concurrent tasks at lower per-task power.
	PackAndThrottle = power.PackAndThrottle
)

// MaxUndervolt is the deepest per-task undervolt level accepted by
// TaskBuilder.Undervolt.
const MaxUndervolt = power.MaxUndervolt

// HedgePolicy re-exports the tail-tolerance policy of the task runtime: a
// watchdog on each job's virtual clock flags executions exceeding
// Multiplier × their cost-model expectation as stragglers and races a
// speculative replica on a different device (first completion wins).
type HedgePolicy = taskrt.HedgePolicy

// DeadlineMode re-exports how missed task deadlines are handled.
type DeadlineMode = taskrt.DeadlineMode

// Deadline modes.
const (
	// DeadlineStrict fails the job with ErrDeadlineExceeded when any task
	// passes its deadline.
	DeadlineStrict = taskrt.DeadlineStrict
	// DeadlineShed degrades gracefully: late low-priority tasks that never
	// started are shed (skipped, successors released), the rest continue
	// best-effort with their records flagged late.
	DeadlineShed = taskrt.DeadlineShed
)

// Event re-exports the typed runtime observability event: one
// observation of the session's lifecycle (placements, completions,
// hedges, throttles, faults, ...), stamped with virtual time, job, task
// and device. Subscribe with WithObserver or System.Events.
type Event = obs.Event

// EventKind re-exports the event taxonomy.
type EventKind = obs.Kind

// Counts re-exports the lifecycle tally that SessionStats and Report
// embed: each field is a fold of the event stream (obs.Counts.Apply), so
// folding a job's EventLog through a zero Counts reproduces its Report.
type Counts = obs.Counts

// Event kinds (see DESIGN.md §5 for the full taxonomy).
const (
	EvTaskQueued        = obs.TaskQueued
	EvTaskPlaced        = obs.TaskPlaced
	EvTaskStarted       = obs.TaskStarted
	EvTaskCompleted     = obs.TaskCompleted
	EvTaskFailed        = obs.TaskFailed
	EvTaskRetried       = obs.TaskRetried
	EvTaskShed          = obs.TaskShed
	EvCheckpointBegin   = obs.CheckpointBegin
	EvCheckpointCommit  = obs.CheckpointCommit
	EvHedgeArmed        = obs.HedgeArmed
	EvHedgeLaunched     = obs.HedgeLaunched
	EvHedgeWon          = obs.HedgeWon
	EvHedgeCancelled    = obs.HedgeCancelled
	EvHedgePromoted     = obs.HedgePromoted
	EvDeadlineMissed    = obs.DeadlineMissed
	EvFaultInjected     = obs.FaultInjected
	EvGovernorThrottled = obs.GovernorThrottled
	EvGovernorRestored  = obs.GovernorRestored
	EvPowerAdmitted     = obs.PowerAdmitted
	EvPowerRefused      = obs.PowerRefused
	EvDeviceLost        = obs.DeviceLost
	EvHedgeDenied       = obs.HedgeDenied
)

// PlatformKind selects the hardware substrate.
type PlatformKind int

const (
	// CloudPlatform is a populated RECS|BOX chassis (paper Figs. 3-4).
	CloudPlatform PlatformKind = iota
	// EdgePlatform is the Fig. 9 CPU+GPU+FPGA edge server.
	EdgePlatform
)

// devRootKey seeds enclave key derivation when the deployment does not
// provide one; production systems must use WithRootKey.
const devRootKey = "legato-development-root-key-0000"

// settings is the resolved configuration of a System.
type settings struct {
	platform  PlatformKind
	policy    Policy
	tee       secure.TEEKind
	rootKey   []byte
	workers   int
	faults    *faults.Plan
	powerCapW float64
	governor  Governor
	hedge     HedgePolicy
	dlMode    DeadlineMode
	observers []func(Event)
	eventLog  bool
	noObs     bool
}

func defaultSettings() settings {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	return settings{
		platform: CloudPlatform,
		policy:   MinEnergy, // the project's reason to exist
		tee:      secure.SGX,
		rootKey:  []byte(devRootKey),
		workers:  workers,
	}
}

// Option configures a System under construction.
type Option interface{ apply(*settings) }

type optionFunc func(*settings)

func (f optionFunc) apply(s *settings) { f(s) }

// WithPlatform selects the hardware substrate.
func WithPlatform(p PlatformKind) Option {
	return optionFunc(func(s *settings) { s.platform = p })
}

// WithPolicy selects the placement objective (default MinEnergy).
func WithPolicy(p Policy) Option {
	return optionFunc(func(s *settings) { s.policy = p })
}

// WithTEE selects the trusted-execution technology backing secure tasks.
// The value is honoured verbatim: secure.SoftwareOnly is a real choice,
// not a sentinel for "default".
func WithTEE(k secure.TEEKind) Option {
	return optionFunc(func(s *settings) { s.tee = k })
}

// WithRootKey seeds enclave key derivation with a platform root key.
func WithRootKey(key []byte) Option {
	return optionFunc(func(s *settings) {
		if len(key) > 0 {
			s.rootKey = append([]byte(nil), key...)
		}
	})
}

// WithWorkers sets how many jobs the engine executes concurrently.
func WithWorkers(n int) Option {
	return optionFunc(func(s *settings) {
		if n > 0 {
			s.workers = n
		}
	})
}

// WithFaults arms the session with an MTBF-driven failure process (see
// faults.Plan): devices may crash or degrade at sampled virtual times, and
// task outputs may silently corrupt per the plan's SDC model. Jobs recover
// by re-placing revoked tasks on surviving devices (bounded retries with
// exponential backoff) and, when Job.Checkpoint is enabled, by restarting
// from the last committed snapshot instead of from zero.
func WithFaults(p faults.Plan) Option {
	return optionFunc(func(s *settings) {
		if p.Enabled() {
			s.faults = &p
		} else {
			s.faults = nil
		}
	})
}

// WithPowerCap arms the session with a fleet-wide power cap in watts: the
// modelled draw (static idle power of every healthy device plus all
// granted dynamic task power) never exceeds it. Placements that would
// breach the cap park until siblings release draw — or, under the
// PackAndThrottle governor, until devices are stepped down their DVFS
// ladders. Zero or negative disarms the cap.
func WithPowerCap(watts float64) Option {
	return optionFunc(func(s *settings) { s.powerCapW = watts })
}

// WithGovernor selects the power-governor policy applied under cap
// pressure (default RaceToIdle).
func WithGovernor(g Governor) Option {
	return optionFunc(func(s *settings) { s.governor = g })
}

// WithHedging arms tail-tolerant execution on every job: a watchdog on the
// job's virtual clock tracks each running task against the cost model's
// expected duration, flags it as a straggler once elapsed time exceeds
// p.Multiplier × expected, and launches a speculative replica on a
// different device. Replicas are admitted through the same core and watt
// ledgers as primaries — hedges pay their way under WithPowerCap — and the
// first execution to complete wins; the loser is cancelled and its burned
// energy reported as HedgeWastedJ. A Multiplier <= 1 leaves hedging off.
func WithHedging(p HedgePolicy) Option {
	return optionFunc(func(s *settings) { s.hedge = p })
}

// WithDeadlineMode selects how missed task deadlines (TaskBuilder.Deadline)
// are handled: DeadlineStrict (default) fails the job with
// ErrDeadlineExceeded, DeadlineShed degrades gracefully by shedding late
// low-priority tasks and best-efforting the rest.
func WithDeadlineMode(m DeadlineMode) Option {
	return optionFunc(func(s *settings) { s.dlMode = m })
}

// WithObserver registers a synchronous observer on the session event
// bus: fn sees every runtime event in global publication order. It runs
// inline on the goroutine driving the emitting job (under the bus lock),
// so it must be fast and must not block — use System.Events for a
// decoupled consumer. May be given multiple times; nil is ignored.
func WithObserver(fn func(Event)) Option {
	return optionFunc(func(s *settings) {
		if fn != nil {
			s.observers = append(s.observers, fn)
		}
	})
}

// WithEventLog arms an in-memory ordered event log for the whole
// session, retrievable with System.EventLog and embedded in
// ExportSession dumps. For a fixed seed and serialized submission
// (WithWorkers(1), jobs awaited one at a time) the log is byte-for-byte
// reproducible.
func WithEventLog() Option {
	return optionFunc(func(s *settings) { s.eventLog = true })
}

// withoutObservability disables the session event bus entirely — the
// baseline the observer-overhead benchmark gate compares against. Not
// exported: the armed-but-idle bus is already one atomic load per event.
func withoutObservability() Option {
	return optionFunc(func(s *settings) { s.noObs = true })
}

// Requirements are a task's per-requirement knobs (Fig. 1: energy, fault
// tolerance, security around the programming model).
type Requirements struct {
	// Replicate requests dual-modular redundancy on diverse device
	// classes with a voting step (Sec. I selective replication).
	Replicate bool
	// Secure runs the task inside the system enclave, sealing its inputs
	// and outputs.
	Secure bool
}

// Task is one unit of work submitted to a job. Inputs must name regions
// that were declared with Data or produced by an earlier Out/InOut;
// referencing an undeclared input is an error. The fluent TaskBuilder
// (Job.Task) is the handle-safe way to build the same thing.
type Task struct {
	Name string
	// Gops is the computational cost.
	Gops float64
	// Cores is the requested width (default 1).
	Cores int
	// Targets restricts device classes (empty = any).
	Targets []hw.Class
	// In, Out, InOut name data dependences. Out and InOut declare their
	// regions; In requires a prior declaration.
	In, Out, InOut []string
	// Priority breaks scheduler ties.
	Priority int
	// Retry is the task's failure attempt budget under fault injection
	// (extra executions after a crash or detected corruption); zero uses
	// the engine default.
	Retry int
	// Undervolt runs the task below the vendor voltage guardband
	// (0 = guardband, up to MaxUndervolt): dynamic power drops
	// quadratically in voltage, at an exponentially growing silent-data-
	// corruption probability fed to the fault model (paper Sec. III).
	Undervolt int
	// Deadline is the task's completion budget on the job's virtual clock,
	// measured from job start; zero means none. Misses are handled per
	// WithDeadlineMode.
	Deadline time.Duration
	// Fn runs at completion.
	Fn func()
	// Req are the non-functional requirements.
	Req Requirements
}

// System is one assembled LEGaTO stack: a long-lived multi-job engine over
// one platform. It is safe for concurrent use.
type System struct {
	set settings

	eng    *engine.Engine
	reg    *monitor.Registry
	fleet  []*hw.Device
	tracer *trace.Tracer  // session trace; completed jobs merge into it
	bus    *obs.Bus       // session event bus (nil only via withoutObservability)
	evlog  *obs.Collector // ordered event log (nil without WithEventLog)

	mu    sync.Mutex
	evsub *obs.Subscription
}

// buildPlatform constructs the compute devices of a platform instance.
func buildPlatform(kind PlatformKind) ([]*hw.Device, error) {
	var devices []*hw.Device
	switch kind {
	case EdgePlatform:
		edge, err := hw.MirrorEdgeCPUGPUFPGA("edge0")
		if err != nil {
			return nil, err
		}
		for _, m := range edge.Modules {
			devices = append(devices, m.Device)
		}
	default:
		box, err := hw.StandardCloudBox("recs0")
		if err != nil {
			return nil, err
		}
		for _, ms := range box.Microservers() {
			devices = append(devices, ms.Device)
		}
	}
	return devices, nil
}

// NewSystem assembles a stack. With no options it is a cloud platform with
// the MinEnergy policy, an SGX-backed enclave and a development root key;
// pass functional options to override.
func NewSystem(opts ...Option) (*System, error) {
	set := defaultSettings()
	for _, o := range opts {
		if o != nil {
			o.apply(&set)
		}
	}
	// Validate the security configuration before spinning anything up.
	if _, err := secure.New(set.tee, []byte("legato-system-enclave"), set.rootKey); err != nil {
		return nil, err
	}

	s := &System{set: set, reg: monitor.NewRegistry()}
	fleet, err := buildPlatform(set.platform)
	if err != nil {
		return nil, err
	}
	s.fleet = fleet
	s.tracer = trace.New(sim.NewEngine())
	if !set.noObs {
		s.bus = obs.NewBus()
		for _, fn := range set.observers {
			s.bus.Observe(fn)
		}
		if set.eventLog {
			s.evlog = &obs.Collector{}
			s.bus.Observe(s.evlog.Observe)
		}
	}

	s.eng, err = engine.New(engine.Config{
		Workers:      set.workers,
		Policy:       set.policy,
		Fleet:        fleet,
		Registry:     s.reg,
		Bus:          s.bus,
		Faults:       set.faults,
		PowerCapW:    set.powerCapW,
		Governor:     set.governor,
		Hedge:        set.hedge,
		DeadlineMode: set.dlMode,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Devices lists the platform's compute devices (the reference fleet whose
// capacity the admission ledger enforces).
func (s *System) Devices() []*hw.Device { return s.fleet }

// Tracer exposes the session trace; the spans and counters of every
// completed or failed job are merged into it once Wait (or Run) returns.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// Monitor exposes the per-job and per-device counter registry.
func (s *System) Monitor() *monitor.Registry { return s.reg }

// Platform reports the configured hardware substrate.
func (s *System) Platform() PlatformKind { return s.set.platform }

// Policy reports the configured placement objective.
func (s *System) Policy() Policy { return s.set.policy }

// TEE reports the trusted-execution technology backing secure tasks.
func (s *System) TEE() secure.TEEKind { return s.set.tee }

// Workers reports the engine's concurrency width.
func (s *System) Workers() int { return s.eng.Workers() }

// SessionStats summarises the engine session across all jobs.
type SessionStats struct {
	JobsSubmitted, JobsCompleted, JobsFailed, JobsCancelled int
	// TasksCompleted counts task executions across completed jobs.
	TasksCompleted int
	// EnergyJ sums dynamic task energy across completed jobs.
	EnergyJ float64
	// TotalJobTime is the fleet time serial submission would need (sum of
	// job makespans).
	TotalJobTime sim.Time
	// SessionMakespan is the fleet time the engine needed with its
	// concurrent lanes.
	SessionMakespan sim.Time
	// Speedup is TotalJobTime / SessionMakespan.
	Speedup float64
	// AdmissionStalls counts admission attempts that lost to a sibling
	// job (contention signal; zero means the overlap estimate is exact).
	AdmissionStalls uint64
	// DevicesLost counts devices crashed by the failure process.
	DevicesLost int
	// PlatformEnergyJ adds the static (idle) energy of the surviving fleet
	// over the session makespan to EnergyJ.
	PlatformEnergyJ float64
	// AvgPowerW is PlatformEnergyJ over the session makespan.
	AvgPowerW float64
	// PowerCapW echoes the configured fleet power cap (0 = uncapped).
	PowerCapW float64
	// PeakDrawW is the high-water mark of the modelled fleet draw — never
	// above PowerCapW when a cap is armed (the peak-draw witness).
	PeakDrawW float64
	// PowerStalls counts placements refused by the watt budget.
	PowerStalls uint64
	// GovernorRescales counts governor DVFS operating-point changes.
	GovernorRescales uint64
	// Counts sums the lifecycle tallies of all completed jobs; its
	// HedgeWastedJ is included in PlatformEnergyJ.
	Counts
}

// Stats snapshots the engine session counters.
func (s *System) Stats() SessionStats {
	st := s.eng.Stats()
	return SessionStats{
		JobsSubmitted:    st.JobsSubmitted,
		JobsCompleted:    st.JobsCompleted,
		JobsFailed:       st.JobsFailed,
		JobsCancelled:    st.JobsCancelled,
		TasksCompleted:   st.TasksCompleted,
		EnergyJ:          st.EnergyJ,
		TotalJobTime:     st.TotalJobTime,
		SessionMakespan:  st.SessionMakespan,
		Speedup:          st.Speedup(),
		AdmissionStalls:  st.AdmissionStalls,
		DevicesLost:      st.DevicesLost,
		PlatformEnergyJ:  st.PlatformEnergyJ,
		AvgPowerW:        st.AvgPowerW,
		PowerCapW:        st.PowerCapW,
		PeakDrawW:        st.PeakDrawW,
		PowerStalls:      st.PowerStalls,
		GovernorRescales: st.GovernorRescales,
		Counts:           st.Counts,
	}
}

// Fleet exposes the shared fleet ledger: per device the capacity, in-use
// and peak cores, draw, governor operating point and loss state; across
// the fleet the watt cap and the peak-draw witness. Uncapped without
// WithPowerCap.
func (s *System) Fleet() *power.Ledger { return s.eng.Fleet() }

// Events returns the session's bounded event feed (buffer
// obs.DefaultBuffer): every runtime event published after the first call
// arrives on the channel in global order. If a consumer falls behind,
// events are dropped rather than stalling the dispatch loop —
// EventsDropped counts them. The channel is closed by Close. Repeated
// calls return the same shared channel.
func (s *System) Events() <-chan Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bus == nil {
		// Observability disabled: a closed channel, so consumers ranging
		// over it terminate instead of blocking forever.
		ch := make(chan Event)
		close(ch)
		return ch
	}
	if s.evsub == nil {
		s.evsub = s.bus.Subscribe(obs.DefaultBuffer)
	}
	return s.evsub.Events()
}

// EventsDropped reports how many events the Events feed discarded
// because its buffer was full (zero when Events was never called).
func (s *System) EventsDropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evsub == nil {
		return 0
	}
	return s.evsub.Dropped()
}

// EventLog returns the ordered event log collected so far; empty unless
// the session was built with WithEventLog.
func (s *System) EventLog() []Event {
	if s.evlog == nil {
		return nil
	}
	return s.evlog.Events()
}

// ExportSession writes the session as a self-contained JSON dump —
// merged tracer spans and counters, the full registry snapshot, and the
// event log when armed — the interchange format the legato-trace CLI
// loads, summarises and converts (Chrome trace_event, Paraver,
// Prometheus text). Export after the jobs of interest completed: only
// merged (completed or failed, and waited for) job traces are included.
// The dump streams to w in chunks through obs.SessionDump.Encode, a
// reflection-free encoder whose bytes match encoding/json's indented
// form; a writer error stops the stream and is returned wrapped.
func (s *System) ExportSession(w io.Writer) error {
	dump := obs.SessionDump{
		Name:     "legato-session",
		Spans:    s.tracer.Spans(),
		Counters: s.tracer.Counters(),
		Metrics:  s.reg.Snapshot(),
		Events:   s.EventLog(),
	}
	return dump.Encode(w)
}

// Close stops accepting jobs and drains the engine; queued jobs still run.
// If ctx fires first, outstanding jobs are cancelled. The Events feed is
// closed once the drain finishes, so ranging consumers terminate.
func (s *System) Close(ctx context.Context) error {
	err := s.eng.Shutdown(ctx)
	s.mu.Lock()
	if s.evsub != nil {
		s.evsub.Close()
	}
	s.mu.Unlock()
	return err
}

// DataHandle names a declared data region of one job. The zero value is
// invalid; handles are only usable with the job that created them.
type DataHandle struct {
	job *Job
	d   *taskrt.Data
}

// Valid reports whether the handle refers to a declared region.
func (h DataHandle) Valid() bool { return h.job != nil && h.d != nil }

// Name returns the region name.
func (h DataHandle) Name() string {
	if h.d == nil {
		return ""
	}
	return h.d.Name
}

// Size returns the declared region size in bytes.
func (h DataHandle) Size() int64 {
	if h.d == nil {
		return 0
	}
	return h.d.Size
}

// Job is one task graph scheduled by the system's engine. Build it (Data,
// Task, Submit), then Run it under a context; a Job runs once.
// A Job is safe for concurrent use while building.
type Job struct {
	sys     *System
	ej      *engine.Job
	name    string
	enclave *secure.Enclave

	mu        sync.Mutex
	data      map[string]*taskrt.Data
	replicas  int
	submitted int
	started   bool

	// waitOnce merges the job's trace into the session (and, on success,
	// builds the report) at the first Wait that sees it completed or
	// failed.
	waitOnce sync.Once
	report   *Report
}

// NewJob creates an empty job with a private virtual clock, scheduling over
// the session's one fleet, which it shares with every other job through
// admission.
func (s *System) NewJob(name string) (*Job, error) {
	if name == "" {
		return nil, fmt.Errorf("legato: job needs a name")
	}
	ej, err := s.eng.NewJob(name)
	if err != nil {
		return nil, err
	}
	enclave, err := secure.New(s.set.tee, []byte("legato-system-enclave"), s.set.rootKey)
	if err != nil {
		return nil, err
	}
	return &Job{
		sys: s, ej: ej, name: name, enclave: enclave,
		data: make(map[string]*taskrt.Data),
	}, nil
}

// Name returns the job name.
func (j *Job) Name() string { return j.name }

// State reports the job's lifecycle phase ("building", "queued",
// "running", "done", "failed", "cancelled").
func (j *Job) State() string { return j.ej.State().String() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.ej.Done() }

// Cancel aborts the job if it is queued or running.
func (j *Job) Cancel() { j.ej.Cancel() }

// SetTimeout gives the job a wall-clock budget measured from submission;
// zero means none. Must be called before Start/Run.
func (j *Job) SetTimeout(d time.Duration) { j.ej.SetTimeout(d) }

// Data declares (or fetches) a named data region of the given size and
// returns its handle. Declaring an existing region returns the original
// handle; a zero-sized declaration can be widened once by a later sized
// one.
func (j *Job) Data(name string, size int64) DataHandle {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dataLocked(name, size)
}

func (j *Job) dataLocked(name string, size int64) DataHandle {
	d, ok := j.data[name]
	if !ok {
		d = j.ej.Runtime().Data(name, size)
		j.data[name] = d
	} else if d.Size == 0 && size > 0 {
		d.Size = size
	}
	return DataHandle{job: j, d: d}
}

// resolveLocked maps input names to regions, failing on any name that was
// never declared — the silent first-use-at-size-zero behaviour of the old
// API is gone.
func (j *Job) resolveLocked(kind string, names []string) ([]*taskrt.Data, error) {
	out := make([]*taskrt.Data, 0, len(names))
	for _, n := range names {
		d, ok := j.data[n]
		if !ok {
			return nil, fmt.Errorf("legato: %s dependency %q was never declared: declare it with Job.Data or produce it with an Out clause first: %w", kind, n, ErrUndeclaredRegion)
		}
		out = append(out, d)
	}
	return out, nil
}

// declareLocked maps output names to regions, declaring new ones — a task
// that writes a region is its legitimate producer.
func (j *Job) declareLocked(names []string) []*taskrt.Data {
	out := make([]*taskrt.Data, 0, len(names))
	for _, n := range names {
		h := j.dataLocked(n, 0)
		out = append(out, h.d)
	}
	return out
}

// diverseClasses returns distinct device classes present on the fleet that
// can serve the task, for replica diversity.
func (j *Job) diverseClasses(t Task) []hw.Class {
	seen := map[hw.Class]bool{}
	var classes []hw.Class
	for _, d := range j.sys.fleet {
		c := d.Spec.Class
		if seen[c] {
			continue
		}
		if len(t.Targets) > 0 {
			ok := false
			for _, want := range t.Targets {
				if want == c {
					ok = true
				}
			}
			if !ok {
				continue
			}
		}
		if d.Spec.Cores >= max(1, t.Cores) {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	return classes
}

// Submit adds a task to the job, expanding replication and security
// requirements into the underlying task graph.
func (j *Job) Submit(t Task) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitLocked(t)
}

func (j *Job) submitLocked(t Task) error {
	if t.Name == "" {
		return fmt.Errorf("legato: task needs a name")
	}
	if j.started {
		return fmt.Errorf("legato: job %q already submitted to the engine: %w", j.name, ErrGraphFrozen)
	}
	// Reject nonsense specs up front with typed errors, instead of letting
	// a zero-cost or negative-width task distort the schedule silently.
	if t.Gops <= 0 {
		return fmt.Errorf("legato: task %q needs a positive Gops cost (got %g): %w", t.Name, t.Gops, ErrInvalidTask)
	}
	if t.Cores < 0 {
		return fmt.Errorf("legato: task %q requests %d cores: %w", t.Name, t.Cores, ErrInvalidTask)
	}
	if t.Retry < 0 {
		return fmt.Errorf("legato: task %q has a negative retry budget %d: %w", t.Name, t.Retry, ErrInvalidTask)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("legato: task %q has a non-positive deadline %v: %w", t.Name, t.Deadline, ErrInvalidTask)
	}
	ins, err := j.resolveLocked("input", t.In)
	if err != nil {
		return err
	}
	inouts, err := j.resolveLocked("inout", t.InOut)
	if err != nil {
		return err
	}
	outs := j.declareLocked(t.Out)

	j.submitted++
	cores := t.Cores
	if cores <= 0 {
		cores = 1
	}
	fn := t.Fn
	if t.Req.Secure {
		// Sealed I/O: charge the enclave for every byte crossing the task
		// boundary, and run the body inside the enclave.
		var ioBytes int64
		for _, deps := range [][]*taskrt.Data{ins, outs, inouts} {
			for _, d := range deps {
				ioBytes += d.Size
			}
		}
		inner := fn
		fn = func() {
			j.enclave.RunSecure(func() {
				if blob, err := j.enclave.Seal(make([]byte, min(ioBytes, 1<<16))); err == nil {
					_, _ = j.enclave.Unseal(blob)
				}
				if inner != nil {
					inner()
				}
			})
		}
	}

	rt := j.ej.Runtime()
	if !t.Req.Replicate {
		return rt.Submit(taskrt.Task{
			Name: t.Name, Gops: t.Gops, Cores: cores, Targets: t.Targets,
			In: ins, Out: outs, InOut: inouts,
			Priority: t.Priority, Critical: false, Retry: t.Retry,
			Undervolt: t.Undervolt, Deadline: t.Deadline, Fn: fn,
		})
	}

	// Dual-modular redundancy: two replicas on diverse classes write to
	// shadow regions; a vote task publishes to the real outputs.
	classes := j.diverseClasses(t)
	if len(classes) == 0 {
		return fmt.Errorf("legato: no device can host replicated task %q", t.Name)
	}
	shadowA := j.dataLocked(t.Name+"/replicaA", 64).d
	shadowB := j.dataLocked(t.Name+"/replicaB", 64).d
	targetA := []hw.Class{classes[0]}
	targetB := []hw.Class{classes[len(classes)-1]} // different class when available
	if err := rt.Submit(taskrt.Task{
		Name: t.Name + "#a", Gops: t.Gops, Cores: cores, Targets: targetA,
		In: append(append([]*taskrt.Data{}, ins...), inouts...), Out: []*taskrt.Data{shadowA},
		Priority: t.Priority, Critical: true, Retry: t.Retry,
		Undervolt: t.Undervolt, Deadline: t.Deadline, Fn: fn,
	}); err != nil {
		return err
	}
	if err := rt.Submit(taskrt.Task{
		Name: t.Name + "#b", Gops: t.Gops, Cores: cores, Targets: targetB,
		In: append(append([]*taskrt.Data{}, ins...), inouts...), Out: []*taskrt.Data{shadowB},
		Priority: t.Priority, Critical: true, Retry: t.Retry,
		Undervolt: t.Undervolt, Deadline: t.Deadline,
	}); err != nil {
		return err
	}
	j.replicas++
	// The vote publishes the replicated result, so the user's deadline
	// binds the whole expansion through its terminal task.
	return rt.Submit(taskrt.Task{
		Name: t.Name + "#vote", Gops: 0.01, Cores: 1,
		In:  []*taskrt.Data{shadowA, shadowB},
		Out: outs, InOut: inouts,
		Priority: t.Priority, Critical: true, Retry: t.Retry,
		Deadline: t.Deadline,
	})
}

// Checkpoint opts the job into periodic asynchronous checkpoints at the
// given FTI level: every `every` task completions a snapshot of the
// outputs produced since the previous one is captured, committing after
// the level's write cost (fti.LevelCost). After a device loss, only tasks
// whose outputs were never captured re-execute, charged the level's
// restore cost first. Must be called before Start/Run.
func (j *Job) Checkpoint(every int, level fti.Level) error {
	if every <= 0 {
		return fmt.Errorf("legato: checkpoint interval must be positive (got %d)", every)
	}
	if level < fti.L1 || level > fti.L4 {
		return fmt.Errorf("legato: unknown checkpoint level %d", level)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return fmt.Errorf("legato: job %q already submitted to the engine: %w", j.name, ErrGraphFrozen)
	}
	j.ej.Runtime().SetCheckpoint(every,
		func(bytes int64) sim.Time { return fti.LevelCost(level, bytes) },
		func(bytes int64) sim.Time { return fti.RestoreCost(level, bytes) })
	return nil
}

// Start submits the job to the engine without waiting. The context governs
// the whole job lifetime: cancel it to abort the job even mid-run.
func (j *Job) Start(ctx context.Context) error {
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return fmt.Errorf("legato: job %q already started: %w", j.name, ErrGraphFrozen)
	}
	j.started = true
	j.mu.Unlock()
	return j.sys.eng.Submit(ctx, j.ej)
}

// Run submits the job and blocks until it completes, is cancelled, or ctx
// fires.
func (j *Job) Run(ctx context.Context) (*Report, error) {
	if err := j.Start(ctx); err != nil {
		return nil, err
	}
	rep, err := j.Wait(ctx)
	if err != nil && ctx.Err() != nil && j.ej.State() == engine.Running {
		// ctx also governs the running job, which stops at its next event:
		// report its cancellation, not a wait that lost the race to it.
		<-j.ej.Done()
		return j.Wait(context.Background())
	}
	return rep, err
}

// Wait blocks until the job completes (or ctx fires — which abandons the
// wait, not the job) and returns its report. The report is only ever
// assembled from a terminal result, and a cancelled job yields a typed
// error matching both ErrJobCancelled and the underlying context error —
// never a nil report with a nil error. The first Wait to see the job
// completed or failed merges its trace into the session tracer.
func (j *Job) Wait(ctx context.Context) (*Report, error) {
	res, err := j.ej.Wait(ctx)
	if err != nil {
		switch j.ej.State() {
		case engine.Cancelled:
			// The job itself was cancelled (not just this wait abandoned).
			return nil, fmt.Errorf("legato: job %q cancelled: %w", j.name, errors.Join(ErrJobCancelled, err))
		case engine.Failed:
			// A failed job's trace (its #retry and #failed spans) joins the
			// session like a completed job's, but counts no completed job.
			j.waitOnce.Do(func() { j.sys.tracer.Merge(j.ej.Tracer()) })
		}
		return nil, err
	}
	if res == nil {
		// Defensive: a terminal job without result or error would otherwise
		// surface as (nil, nil).
		return nil, fmt.Errorf("legato: job %q finished without a result: %w", j.name, ErrJobCancelled)
	}
	j.waitOnce.Do(func() { j.buildReport(res) })
	return j.report, nil
}

// buildReport assembles the job report and merges the job's trace and
// security accounting into the session.
func (j *Job) buildReport(res *taskrt.Result) {
	j.mu.Lock()
	replicas := j.replicas
	j.mu.Unlock()
	rep := &Report{
		Makespan:        res.Makespan,
		Records:         res.Records,
		TaskEnergyJ:     res.EnergyJ,
		SecurityEnergyJ: j.enclave.EnergyNJ * 1e-9,
		ReplicatedTasks: replicas,
		Counts:          res.Counts,
		Energy:          energy.NewReport(),
	}
	// Each device draws its idle floor while alive on the job's clock, plus
	// the energy of the executions committed on it; cancelled hedge losers
	// burned HedgeWastedJ on top.
	idleJ := 0.0
	for i, d := range j.sys.fleet {
		e := d.Spec.IdleWatts * sim.ToSeconds(res.Uptime[i])
		idleJ += e
		rep.Energy.Add(d.ID, e)
	}
	for _, rec := range res.Records {
		if rec.Device != "" {
			rep.Energy.Add(rec.Device, rec.EnergyJ)
		}
	}
	rep.PlatformEnergyJ = idleJ + rep.TaskEnergyJ + rep.HedgeWastedJ
	if sec := sim.ToSeconds(res.Makespan); sec > 0 {
		rep.EDPJs = rep.TaskEnergyJ * sec
		rep.AvgPowerW = rep.PlatformEnergyJ / sec
	}
	j.report = rep
	tr := j.ej.Tracer()
	tr.Count("jobs", 1)
	j.sys.tracer.Merge(tr)
}

// TaskBuilder accumulates one task fluently; Submit finalises it. Builder
// errors (foreign handles) surface at Submit.
type TaskBuilder struct {
	job  *Job
	t    Task
	deps struct{ in, out, inout []string }
	err  error
}

// Task starts a fluent task declaration on the job.
func (j *Job) Task(name string) *TaskBuilder {
	b := &TaskBuilder{job: j}
	b.t.Name = name
	return b
}

// Gops sets the computational cost.
func (b *TaskBuilder) Gops(g float64) *TaskBuilder { b.t.Gops = g; return b }

// Cores sets the requested width.
func (b *TaskBuilder) Cores(n int) *TaskBuilder { b.t.Cores = n; return b }

// On restricts placement to the given device classes.
func (b *TaskBuilder) On(classes ...hw.Class) *TaskBuilder {
	b.t.Targets = append(b.t.Targets, classes...)
	return b
}

// Priority breaks scheduler ties (higher first).
func (b *TaskBuilder) Priority(p int) *TaskBuilder { b.t.Priority = p; return b }

// Do attaches a completion callback.
func (b *TaskBuilder) Do(fn func()) *TaskBuilder { b.t.Fn = fn; return b }

func (b *TaskBuilder) handles(kind string, hs []DataHandle) []string {
	names := make([]string, 0, len(hs))
	for _, h := range hs {
		if !h.Valid() {
			b.err = fmt.Errorf("legato: task %q: invalid %s handle", b.t.Name, kind)
			continue
		}
		if h.job != b.job {
			b.err = fmt.Errorf("legato: task %q: %s handle %q belongs to job %q",
				b.t.Name, kind, h.Name(), h.job.name)
			continue
		}
		names = append(names, h.Name())
	}
	return names
}

// In declares read dependences.
func (b *TaskBuilder) In(hs ...DataHandle) *TaskBuilder {
	b.deps.in = append(b.deps.in, b.handles("input", hs)...)
	return b
}

// Out declares write dependences.
func (b *TaskBuilder) Out(hs ...DataHandle) *TaskBuilder {
	b.deps.out = append(b.deps.out, b.handles("output", hs)...)
	return b
}

// InOut declares read-write dependences.
func (b *TaskBuilder) InOut(hs ...DataHandle) *TaskBuilder {
	b.deps.inout = append(b.deps.inout, b.handles("inout", hs)...)
	return b
}

// Retry sets the task's failure attempt budget under fault injection
// (extra executions after a crash or detected corruption); zero keeps the
// engine default.
func (b *TaskBuilder) Retry(n int) *TaskBuilder { b.t.Retry = n; return b }

// Undervolt runs the task below the vendor voltage guardband at the given
// level (1..MaxUndervolt): dynamic power drops quadratically in voltage,
// at an exponentially growing silent-data-corruption probability fed to
// the fault model. Pair deep levels with Replicated so the vote catches
// what the guardband no longer does.
func (b *TaskBuilder) Undervolt(level int) *TaskBuilder { b.t.Undervolt = level; return b }

// Deadline gives the task a completion budget on the job's virtual clock,
// measured from job start. A non-positive d is rejected at Submit with
// ErrInvalidTask; how a miss is handled depends on WithDeadlineMode.
func (b *TaskBuilder) Deadline(d time.Duration) *TaskBuilder {
	if d <= 0 && b.err == nil {
		b.err = fmt.Errorf("legato: task %q: deadline must be positive (got %v): %w", b.t.Name, d, ErrInvalidTask)
	}
	b.t.Deadline = d
	return b
}

// Secure runs the task inside the system enclave with sealed I/O.
func (b *TaskBuilder) Secure() *TaskBuilder { b.t.Req.Secure = true; return b }

// Replicated requests dual-modular redundancy with a vote.
func (b *TaskBuilder) Replicated() *TaskBuilder { b.t.Req.Replicate = true; return b }

// Submit finalises the task into the job's graph.
func (b *TaskBuilder) Submit() error {
	if b.err != nil {
		return b.err
	}
	t := b.t
	t.In, t.Out, t.InOut = b.deps.in, b.deps.out, b.deps.inout
	return b.job.Submit(t)
}

// Report is the outcome of a job run.
type Report struct {
	Makespan sim.Time
	Records  []taskrt.Record
	// TaskEnergyJ is the dynamic energy of all task executions.
	TaskEnergyJ float64
	// PlatformEnergyJ is the job's energy on its own clock: every device's
	// idle floor up to its loss or the makespan, plus TaskEnergyJ and
	// HedgeWastedJ.
	PlatformEnergyJ float64
	// SecurityEnergyJ is the job enclave's accumulated cost.
	SecurityEnergyJ float64
	// ReplicatedTasks counts DMR-expanded submissions.
	ReplicatedTasks int
	// Counts is the job's lifecycle tally (retries, restores, checkpoints,
	// SDCs, hedges, deadline misses, shed tasks), folded from its events.
	Counts
	// EDPJs is the job's energy-delay product: TaskEnergyJ × makespan in
	// joule-seconds, the quantity the MinEDP policy optimises.
	EDPJs float64
	// AvgPowerW is PlatformEnergyJ over the job makespan.
	AvgPowerW float64
	// Energy is the per-device breakdown: idle floor up to the device's
	// loss or the makespan, plus the energy of the executions committed on
	// it (hedge waste is not attributed).
	Energy *energy.Report
}
