// Package taskrt implements the OmpSs-style task runtime of the LEGaTO
// stack (paper Sec. II-C): tasks declare in/out/inout dependences on data
// regions, the runtime derives the task graph from program order, and a
// scheduler places ready tasks on the heterogeneous devices (SMP cores,
// GPUs, FPGAs) that the hw layer models — optimising for time, energy, or
// energy-delay product, which is how the task abstraction "maximises
// optimisation opportunities for low-energy computing" (Sec. I).
//
// The runtime is also the recovery layer of the resilience story (paper
// Sec. IV): a device may be failed mid-run (FailDevice), which revokes the
// tasks executing on it and re-places them on surviving devices with
// exponential backoff under a bounded attempt budget; completed-but-not-yet
// -checkpointed outputs resident on the lost device are invalidated and
// re-executed ("restored"); and jobs may opt into periodic asynchronous
// checkpoints (SetCheckpoint) so a crash restarts from the last snapshot
// instead of from zero.
package taskrt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"legato/internal/energy"
	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/sim"
)

// Typed failure sentinels, matchable with errors.Is through every wrapping
// layer up to the public legato surface.
var (
	// ErrDeviceLost marks a task that became unplaceable because every
	// device that could host it crashed or lost the capacity to fit it.
	ErrDeviceLost = errors.New("taskrt: device lost")
	// ErrRetriesExhausted marks a task that failed more times than its
	// attempt budget allows.
	ErrRetriesExhausted = errors.New("taskrt: retries exhausted")
	// ErrNoDevice marks a task no device could ever have hosted.
	ErrNoDevice = errors.New("taskrt: no compatible device")
	// ErrDeadlineExceeded marks a task that passed its virtual-clock
	// deadline under the strict deadline mode.
	ErrDeadlineExceeded = errors.New("taskrt: task deadline exceeded")
	// ErrInvalidTask marks a task specification rejected at Submit
	// (negative cost, width, retry budget or deadline, or a moldable range
	// that is empty or has a parallel fraction outside [0,1]).
	ErrInvalidTask = errors.New("taskrt: invalid task")
)

// HedgePolicy arms tail-tolerant execution: a per-job watchdog on the
// virtual clock tracks each running task against the cost model's expected
// span and, once elapsed time exceeds Multiplier × expected, flags the
// execution as a straggler and launches a speculative replica ("hedge") on
// a different device. The first execution to complete wins; the loser is
// cancelled deterministically and its burned energy is accounted as hedge
// waste. Hedges are admitted through the same core and watt ledgers as
// primaries, so they pay their way under a fleet power cap.
type HedgePolicy struct {
	// Multiplier is the straggler threshold as a multiple of the cost
	// model's expected execution time. Values <= 1 disable hedging (the
	// watchdog would fire before a healthy execution could finish).
	Multiplier float64
	// MaxHedges bounds speculative replicas launched per task (default 1).
	MaxHedges int
}

// Enabled reports whether the policy arms the straggler watchdog.
func (p HedgePolicy) Enabled() bool { return p.Multiplier > 1 }

func (p HedgePolicy) maxHedges() int {
	if p.MaxHedges > 0 {
		return p.MaxHedges
	}
	return 1
}

// DeadlineMode selects how a missed task deadline is handled.
type DeadlineMode int

const (
	// DeadlineStrict aborts the job with ErrDeadlineExceeded when any task
	// passes its deadline.
	DeadlineStrict DeadlineMode = iota
	// DeadlineShed degrades gracefully: a late task that has not started
	// and has no elevated priority is shed (skipped, successors released,
	// record flagged), while running or high-priority tasks continue
	// best-effort with their records flagged as late.
	DeadlineShed
)

// Admission is the shared fleet ledger that arbitrates real device cores
// and the fleet watt budget between runtimes executing concurrently on
// independent virtual clocks (the multi-job engine). Every runtime reads
// the same read-only reference devices and keeps what changes during its
// run in its own per-device state; before a task may start it must claim
// its cores and its dynamic draw from the ledger, keyed by device ID, so
// the union of all placements never oversubscribes a device or breaches
// the cap. power.Ledger implements it; implementations must be safe for
// concurrent use.
//
// Claim judges cores first, then watts, and names the budget that refused;
// a claim of zero cores claims watts alone. Changed returns a channel
// closed on the next release, fleet event or governor reshape after the
// call; a runtime grabs it before dispatching so a release racing with a
// refusal can never be missed. Reacquire claims a set of core grants,
// indexed like Shape's devices, in one step, or none, for a runtime
// resuming from suspension; a grant larger than its device's current
// capacity (the device shrank while the runtime was parked) is claimed as
// a deficit once no sibling holds that device.
// Shape fills, per device, the current total cores (zero for a lost or
// unknown device) and the governor's current DVFS prescription, and
// returns the epoch they belong to; Epoch moves whenever either changes.
// Shape's cores let runtimes tell transient contention (park and wait) from
// permanent loss (re-place or fail with ErrDeviceLost); the prescription
// is applied before scoring. Changed and Epoch are read on every dispatch
// round, so they should be cheap. Capped reports
// whether the watt budget is finite: only then can a draw be refused, so
// only then are watt decisions reported as events.
type Admission interface {
	Claim(deviceID string, cores int, watts energy.Watts) power.Verdict
	Release(deviceID string, cores int, watts energy.Watts)
	Reacquire(devs []*hw.Device, grants []int) bool
	Changed() <-chan struct{}
	Epoch() uint64
	Shape(devs []*hw.Device, cores, points []int) uint64
	Capped() bool
}

// grant is a claim on cores of one device, by index into Runtime.devices;
// zero cores is no grant.
type grant struct {
	dev   int
	cores int
}

// devState is what one run holds and knows of one device, indexed like
// Runtime.devices. The devices themselves are never written: they may be
// the reference fleet every concurrent runtime reads.
type devState struct {
	cores int          // cores held by executions (zero while suspended)
	watts energy.Watts // ledger watts held by executions
	// point is the applied operating point new placements are priced at.
	// It trails the prescribed Runtime.points until applyOperatingPoints
	// runs, so each governor event is stamped at the instant it applies.
	point    int
	lost     bool     // failed on this run's clock, or before it began
	lostAt   sim.Time // when it was lost
	slowdown float64  // hidden execution-time stretch (1: none)
	suspect  float64  // observed slowdown folded into scoring (0: none)
}

// Data is a named data region tasks depend on.
type Data struct {
	Name string
	Size int64

	lastWriter *node
	readers    []*node
	version    int
}

// Task is one unit of work.
type Task struct {
	Name string
	// Gops is the task's computational cost in giga-operations.
	Gops float64
	// Cores is the requested parallel width on the chosen device
	// (default 1); the narrowest width of a moldable task.
	Cores int
	// Mold makes the task moldable: its width is chosen at placement.
	// nil keeps the fixed Cores width with linear speedup. Submit
	// validates it, so it must not change afterwards.
	Mold *Moldable
	// Targets lists acceptable device classes in preference order; empty
	// means any device.
	Targets []hw.Class
	// In, Out, InOut declare data dependences.
	In, Out, InOut []*Data
	// Priority breaks ties in the ready queue (higher first).
	Priority int
	// Critical marks the task reliability-critical (selective replication,
	// paper Sec. I: "only the most reliability-critical tasks will be
	// replicated"). Critical tasks detect silent data corruption (the DMR
	// vote catches a divergent replica) and re-execute; non-critical tasks
	// carry corruption silently.
	Critical bool
	// Retry is the per-task failure attempt budget (extra executions after
	// a crash or detected corruption); zero uses the runtime default.
	Retry int
	// Undervolt runs the task below the operating point's voltage by the
	// given level (1..power.MaxUndervolt): dynamic draw and energy shrink
	// quadratically, while power.SDCProbability(level) is added to the
	// task's silent-corruption risk when a fault plan is armed.
	Undervolt int
	// Deadline is an absolute virtual-clock deadline measured from job
	// start; zero means none. How a miss is handled depends on the
	// runtime's DeadlineMode.
	Deadline sim.Time
	// Fn runs at completion time (simulated); may be nil.
	Fn func()
}

// Moldable is the elastic width of a XiTAO-style task (paper Sec. II-C):
// at placement the runtime picks a width in [Task.Cores, MaxCores] from the
// chosen device's free cores, and the task runs its 1-core time divided by
// its Amdahl speedup at that width.
type Moldable struct {
	// MaxCores is the widest the task may run.
	MaxCores int
	// ParallelFrac is the Amdahl parallel fraction in [0,1].
	ParallelFrac float64
}

// Speedup is the Amdahl speedup at the given width.
func (m *Moldable) Speedup(width int) float64 {
	if width <= 1 {
		return 1
	}
	p := m.ParallelFrac
	return 1.0 / ((1 - p) + p/float64(width))
}

// elasticWidth is XiTAO's elastic rule for a moldable task on a device
// with free cores: a share of them in proportion to the task's Gops over
// the ready Gops (its own included), clamped to [Cores, MaxCores], then
// trimmed while the last core adds under 50% of a core's worth of speedup.
// Concurrent ready tasks thus share the device, and a mostly serial task
// stays narrow even on an idle one.
func elasticWidth(t *Task, free int, readyGops float64) int {
	m := t.Mold
	w := t.Cores
	if readyGops > 0 {
		w = int(float64(free)*t.Gops/readyGops + 0.999)
	}
	w = min(max(w, t.Cores), m.MaxCores, free)
	for w > t.Cores {
		if m.Speedup(w)/m.Speedup(w-1) >= 1.0+0.5/float64(w) {
			break
		}
		w--
	}
	return w
}

// execTime is how long t runs on device di at the given width and the
// device's applied operating point: the spec's linear model, or for a
// moldable task its 1-core time over the Amdahl speedup.
func (r *Runtime) execTime(t *Task, di, width int) sim.Time {
	s, p := &r.devices[di].Spec, r.state[di].point
	if t.Mold == nil {
		return s.ExecTime(t.Gops, width, p)
	}
	return sim.Time(float64(s.ExecTime(t.Gops, 1, p)) / t.Mold.Speedup(width))
}

// energyFor is the dynamic energy of t on device di at the given width,
// before undervolting: width cores' draw over execTime.
func (r *Runtime) energyFor(t *Task, di, width int) energy.Joules {
	s, p := &r.devices[di].Spec, r.state[di].point
	if t.Mold == nil {
		return s.EnergyFor(t.Gops, width, p)
	}
	return s.DynamicWatts(width, p) * sim.ToSeconds(r.execTime(t, di, width))
}

// taskDrawW is the dynamic draw t would hold on device di at the given
// width and the applied operating point, shrunk by its undervolt level.
func (r *Runtime) taskDrawW(t *Task, di, width int) energy.Watts {
	return r.devices[di].Spec.DynamicWatts(width, r.state[di].point) * power.UndervoltPowerScale(t.Undervolt)
}

// exec is one in-flight execution of a task: the primary placement, or a
// speculative hedge replica racing it on a different device.
type exec struct {
	dev      int // index into Runtime.devices
	cores    int
	watts    energy.Watts // dynamic draw granted by the ledger and held
	energy   energy.Joules
	start    sim.Time
	expected sim.Time // clean cost-model span, before any silent slowdown
	finish   sim.Time // scheduled completion instant (stretched by slowdown)
	done     sim.Handle
	watchdog sim.Handle
	hedge    bool
	flagged  bool // already counted as a straggler
}

// node is a submitted task with graph state.
type node struct {
	task      Task
	id        int
	deps      int     // unsatisfied predecessor count
	succ      []*node // successors
	pred      []*node // predecessors (for re-execution after invalidation)
	done      bool
	started   bool
	persisted bool  // output captured by a committed checkpoint
	queued    bool  // in the ready queue (see ready.go)
	slot      int32 // heap index in lane; -1 while dispatch sets the node aside
	lane      *lane // ready-queue lane of the task's shape

	attempts int   // failed executions so far (crash/sdc)
	primary  *exec // the scheduled placement while running
	hedge    *exec // speculative replica racing the primary, if any
	hedges   int   // speculative replicas launched for this task
	deadline sim.Handle

	record Record
}

// Record is the execution trace of one task.
type Record struct {
	ID      int
	Name    string
	Device  string
	Class   hw.Class
	Start   sim.Time
	End     sim.Time
	EnergyJ energy.Joules
	// Undervolt is the task's undervolt level (0 = guardband).
	Undervolt int
	// DrawW is the dynamic draw the execution held while running.
	DrawW energy.Watts
	// Attempts counts executions of the task (1 = first try succeeded).
	Attempts int
	// Critical copies Task.Critical (the task is replicated).
	Critical bool
	// Corrupted marks a silent data corruption that went undetected (the
	// task was not replicated/critical).
	Corrupted bool
	// Hedged marks a task whose committed execution was a speculative
	// replica (the hedge beat the straggling primary).
	Hedged bool
	// MissedDeadline marks a task that passed its deadline under the
	// graceful DeadlineShed mode (shed, or completed late best-effort).
	MissedDeadline bool
	// Shed marks a task skipped entirely by graceful degradation: it never
	// executed, its Fn never ran, and its successors were released as-is.
	Shed bool
}

// Policy selects the placement objective.
type Policy int

const (
	// MinTime places each ready task on the device finishing it soonest.
	MinTime Policy = iota
	// MinEnergy places on the device with the lowest dynamic energy.
	MinEnergy
	// MinEDP minimises energy × delay.
	MinEDP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinTime:
		return "min-time"
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-edp"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Runtime is one task-graph execution context.
type Runtime struct {
	eng     *sim.Engine
	devices []*hw.Device
	policy  Policy

	nodes  []*node
	nextID int
	inDAG  int // submitted, not finished

	// Ready queue and dispatch scratch (see ready.go).
	lanes    []*lane         // one heap of ready tasks per task shape
	nready   int             // queued tasks
	capacity []int           // fleet capacity per device, as of epoch
	points   []int           // governor-prescribed operating point per device, as of epoch
	epoch    uint64          // the ledger shape epoch capacity and points were read at
	free     [classSlots]int // most free cores on one healthy device, per class
	freeAny  int             // most free cores on any healthy device
	aside    []*node         // dispatch call: popped, not placed, retried after each placement

	state   []devState      // per-device run state, indexed like devices
	adm     Admission       // the fleet ledger every placement claims from
	capped  bool            // adm has a finite watt budget
	sink    func(obs.Event) // lifecycle observer (nil: none)
	blocked bool            // a ready task lost admission this dispatch round
	stalled grant           // placement stalled only by sibling jobs' grants
	reserve grant           // fleet grant won by suspend for the stalled placement

	// Resilience state.
	running      map[*node]struct{}
	retryMax     int      // default attempt budget (extra executions)
	retryBackoff sim.Time // base backoff, doubled per attempt
	corrupt      func(Record) bool
	failErr      error // terminal failure (retries exhausted)
	faultEvents  []sim.Handle

	// Tail-tolerance state.
	hedgePol HedgePolicy
	dlMode   DeadlineMode

	// Checkpoint state.
	ckptEvery   int
	ckptCost    func(bytes int64) sim.Time
	restoreCost func(bytes int64) sim.Time
	sinceCkpt   int
	ckptBytes   int64

	counts obs.Counts // lifecycle tally, folded from every emitted event
}

// New creates a runtime over the given devices, each alive and at the
// operating point adm prescribes. Every placement claims its cores and
// draw from adm: the fleet ledger shared by concurrent runtimes, or for a
// runtime alone an uncapped power.Ledger over its own devices. The runtime
// only reads the devices, so concurrent runtimes may share them; MarkLost
// starts a run with a device already lost.
func New(eng *sim.Engine, devices []*hw.Device, policy Policy, adm Admission) *Runtime {
	r := &Runtime{
		eng: eng, devices: devices, policy: policy,
		adm: adm, capped: adm.Capped(),
		capacity:     make([]int, len(devices)),
		points:       make([]int, len(devices)),
		state:        make([]devState, len(devices)),
		running:      make(map[*node]struct{}),
		retryBackoff: time.Millisecond,
	}
	r.epoch = adm.Shape(devices, r.capacity, r.points)
	for i := range r.state {
		r.state[i] = devState{slowdown: 1}
	}
	return r
}

// MarkLost records a device as lost before the run begins, the way a fleet
// that already lost it presents it: placement never considers it, it draws
// no idle power on this run's clock, and no event is emitted. Unknown IDs
// are ignored.
func (r *Runtime) MarkLost(id string) {
	if i := r.deviceIndex(id); i >= 0 && !r.state[i].lost {
		r.state[i].lost, r.state[i].lostAt = true, r.eng.Now()
	}
}

// SetRetryPolicy sets the default failure attempt budget (extra executions
// after a crash or detected corruption; Task.Retry overrides per task) and
// the base backoff, which doubles on every consecutive failure.
func (r *Runtime) SetRetryPolicy(maxAttempts int, backoff sim.Time) {
	if maxAttempts >= 0 {
		r.retryMax = maxAttempts
	}
	if backoff > 0 {
		r.retryBackoff = backoff
	}
}

// SetCorruptor installs the silent-data-corruption oracle, consulted once
// per completed execution with the would-be record. Critical tasks detect
// a corruption (the DMR vote) and re-execute; others carry it silently.
func (r *Runtime) SetCorruptor(fn func(Record) bool) { r.corrupt = fn }

// SetCheckpoint enables asynchronous periodic checkpoints: every `every`
// task completions, the outputs produced since the previous checkpoint are
// captured and persist after cost(bytes) of virtual time (the async-FTI
// model: capture overlaps execution, so a checkpoint only costs time when a
// crash lands inside its window). restore(bytes) is charged before
// invalidated tasks re-execute after a device loss.
func (r *Runtime) SetCheckpoint(every int, cost, restore func(bytes int64) sim.Time) {
	r.ckptEvery = every
	r.ckptCost = cost
	r.restoreCost = restore
}

// SetHedging arms the straggler watchdog with the given policy. Must be
// called before Run; a policy with Multiplier <= 1 leaves hedging off.
func (r *Runtime) SetHedging(p HedgePolicy) { r.hedgePol = p }

// SetDeadlineMode selects how missed task deadlines are handled (default
// DeadlineStrict: the job aborts with ErrDeadlineExceeded).
func (r *Runtime) SetDeadlineMode(m DeadlineMode) { r.dlMode = m }

// DegradeDevice records a *silent* slowdown for the named device: every
// execution on it takes factor × the cost model's span — including the
// remainder of executions already in flight — while placement scoring
// still sees the clean model. Degradation is invisible to the scheduler
// until the straggler watchdog observes it; that asymmetry is the reason
// the tail-tolerance layer exists. Factors are monotone: a smaller factor
// than the device's current one is ignored.
func (r *Runtime) DegradeDevice(id string, factor float64) {
	di := r.deviceIndex(id)
	if di < 0 {
		return
	}
	st := &r.state[di]
	old := st.slowdown
	if factor <= old {
		return
	}
	st.slowdown = factor
	// Stretch the remainder of in-flight executions on the device. The
	// watchdog events stay where they are: they were armed off the clean
	// expected span, which is exactly the budget a straggler overruns.
	ratio := factor / old
	now := r.eng.Now()
	for _, n := range r.nodes {
		if _, ok := r.running[n]; !ok {
			continue
		}
		for _, ex := range [2]*exec{n.primary, n.hedge} {
			if ex == nil || ex.dev != di {
				continue
			}
			remaining := ex.finish - now
			if remaining <= 0 {
				continue
			}
			ex.done.Cancel()
			stretched := sim.Time(float64(remaining) * ratio)
			ex.finish = now + stretched
			n, ex := n, ex
			ex.done = r.eng.Schedule(stretched, func() { r.complete(n, ex) })
		}
	}
}

// noteSuspect folds an observed slowdown into placement scoring: once a
// straggler exposes a degraded device, future placements see its expected
// time stretched by the largest factor witnessed so far. Only elapsed time
// is used — the runtime learns from what it measured, not from the fault
// plan it cannot see.
func (r *Runtime) noteSuspect(di int, observed float64) {
	if st := &r.state[di]; observed > 1 && observed > st.suspect {
		st.suspect = observed
	}
}

// ScheduleFault registers fn to run at the given virtual time *while the
// graph is still executing*: pending fault events are cancelled the moment
// the graph completes, so a failure process sampled beyond the job's
// lifetime cannot stretch the run.
func (r *Runtime) ScheduleFault(at sim.Time, fn func()) {
	r.faultEvents = append(r.faultEvents, r.eng.ScheduleAt(at, fn))
}

// SetSink installs the lifecycle observer. Must be called before the first
// Submit. Every lifecycle transition — queue, placement, start, completion,
// shed, retry, failure, device loss, checkpoint, hedge, deadline miss,
// watt admission, DVFS change — reaches it as one obs.Event on the
// goroutine driving the runtime, stamped with virtual time, task and
// device; the owner stamps Job. DESIGN.md §5 lists each kind's Value and
// Detail.
func (r *Runtime) SetSink(fn func(obs.Event)) { r.sink = fn }

// emit folds one lifecycle event into the run's Counts and reports it to
// the sink.
func (r *Runtime) emit(e obs.Event) {
	r.counts.Apply(e)
	if r.sink != nil {
		r.sink(e)
	}
}

// Data declares a data region.
func (r *Runtime) Data(name string, size int64) *Data {
	return &Data{Name: name, Size: size}
}

// Submit adds a task, wiring dependences against earlier submissions
// (program order), exactly like OmpSs #pragma omp task in/out clauses.
func (r *Runtime) Submit(t Task) error {
	if t.Cores < 0 {
		return fmt.Errorf("taskrt: task %q requests %d cores: %w", t.Name, t.Cores, ErrInvalidTask)
	}
	if t.Cores == 0 {
		t.Cores = 1
	}
	if t.Gops < 0 {
		return fmt.Errorf("taskrt: task %q has negative cost %g: %w", t.Name, t.Gops, ErrInvalidTask)
	}
	if t.Retry < 0 {
		return fmt.Errorf("taskrt: task %q has negative retry budget %d: %w", t.Name, t.Retry, ErrInvalidTask)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("taskrt: task %q has negative deadline %v: %w", t.Name, t.Deadline, ErrInvalidTask)
	}
	if t.Undervolt < 0 || t.Undervolt > power.MaxUndervolt {
		return fmt.Errorf("taskrt: task %q undervolt level %d outside [0, %d]: %w",
			t.Name, t.Undervolt, power.MaxUndervolt, ErrInvalidTask)
	}
	if m := t.Mold; m != nil {
		if m.MaxCores < t.Cores {
			return fmt.Errorf("taskrt: task %q molds up to %d cores, below its %d: %w",
				t.Name, m.MaxCores, t.Cores, ErrInvalidTask)
		}
		if !(m.ParallelFrac >= 0 && m.ParallelFrac <= 1) {
			return fmt.Errorf("taskrt: task %q parallel fraction %v outside [0,1]: %w",
				t.Name, m.ParallelFrac, ErrInvalidTask)
		}
	}
	n := &node{task: t, id: r.nextID}
	r.nextID++
	n.record = Record{ID: n.id, Name: t.Name, Critical: t.Critical, Undervolt: t.Undervolt}

	addEdge := func(from *node) {
		if from == nil || from.done {
			return
		}
		from.succ = append(from.succ, n)
		n.pred = append(n.pred, from)
		n.deps++
	}
	for _, d := range t.In {
		addEdge(d.lastWriter)
		d.readers = append(d.readers, n)
	}
	for _, d := range t.InOut {
		addEdge(d.lastWriter)
		for _, rd := range d.readers {
			if rd != n {
				addEdge(rd)
			}
		}
		d.lastWriter = n
		d.readers = d.readers[:0]
		d.version++
	}
	for _, d := range t.Out {
		// Output and anti dependences: wait for previous writer and readers
		// (no renaming in this runtime).
		addEdge(d.lastWriter)
		for _, rd := range d.readers {
			if rd != n {
				addEdge(rd)
			}
		}
		d.lastWriter = n
		d.readers = d.readers[:0]
		d.version++
	}

	r.nodes = append(r.nodes, n)
	r.inDAG++
	if t.Deadline > 0 {
		at := t.Deadline
		if now := r.eng.Now(); at < now {
			at = now
		}
		n.deadline = r.eng.ScheduleAt(at, func() { r.deadlineFire(n) })
	}
	r.emit(obs.Event{At: r.eng.Now(), Kind: obs.TaskQueued, Task: t.Name})
	if n.deps == 0 {
		r.enqueue(n)
	}
	return nil
}

// deadlineFire handles a task still unfinished at its deadline. Strict
// mode aborts the job with ErrDeadlineExceeded. DeadlineShed degrades
// gracefully: a not-yet-started task without elevated priority is shed —
// skipped entirely, successors released so the rest of the graph keeps
// flowing — while running or high-priority tasks continue best-effort with
// their records flagged late.
func (r *Runtime) deadlineFire(n *node) {
	if n.done {
		return
	}
	now := r.eng.Now()
	shed := r.dlMode == DeadlineShed && !n.started && n.task.Priority <= 0
	detail := "late"
	if shed {
		detail = "shed"
	}
	r.emit(obs.Event{At: now, Kind: obs.DeadlineMissed, Task: n.task.Name,
		Value: sim.ToSeconds(n.task.Deadline), Detail: detail})
	if r.dlMode == DeadlineShed {
		n.record.MissedDeadline = true
		if !shed {
			return
		}
		r.unready(n)
		n.record.Shed = true
		n.record.End = now
		r.finishNode(n)
		r.dispatch()
		return
	}
	if r.failErr == nil {
		r.failErr = fmt.Errorf("taskrt: task %q missed its %v deadline at %v: %w",
			n.task.Name, n.task.Deadline, now, ErrDeadlineExceeded)
		r.emit(obs.Event{At: now, Kind: obs.TaskFailed, Task: n.task.Name, Detail: "deadline"})
	}
}

// compatible reports whether device di can run t.
func (r *Runtime) compatible(t *Task, di int) bool {
	dev := r.devices[di]
	return !r.state[di].lost && dev.Spec.Cores >= t.Cores && classMatch(t, dev.Spec.Class)
}

// classMatch reports whether t accepts the given device class.
func classMatch(t *Task, c hw.Class) bool {
	if len(t.Targets) == 0 {
		return true
	}
	for _, want := range t.Targets {
		if want == c {
			return true
		}
	}
	return false
}

// score returns the policy objective for running t on device di now (lower
// is better) and the width it was scored at; ok=false if the device cannot
// take the task at this instant. A moldable task is scored at its elastic
// width on the device, given the job's ready Gops.
func (r *Runtime) score(t *Task, di int, readyGops float64) (s float64, width int, ok bool) {
	if !r.compatible(t, di) {
		return 0, 0, false
	}
	free := r.devices[di].Spec.Cores - r.state[di].cores
	if free < t.Cores {
		return 0, 0, false
	}
	width = t.Cores
	if t.Mold != nil {
		width = elasticWidth(t, min(free, r.capacity[di]), readyGops)
	}
	execSec := sim.ToSeconds(r.execTime(t, di, width))
	// Fold in witnessed slowdowns: a device exposed as degraded by the
	// straggler watchdog is scored at its observed stretch, so placement
	// routes around it without ever reading the (hidden) fault state.
	if f := r.state[di].suspect; f > 0 {
		execSec *= f
	}
	energyJ := r.energyFor(t, di, width) * power.UndervoltPowerScale(t.Undervolt)
	switch r.policy {
	case MinEnergy:
		return energyJ, width, true
	case MinEDP:
		return energyJ * execSec, width, true
	default:
		return execSec, width, true
	}
}

// readyGops is the job's ready work with n counted: the queued tasks and
// those set aside this dispatch call. Only moldable placements read it.
func (r *Runtime) readyGops(n *node) float64 {
	g := n.task.Gops
	for _, l := range r.lanes {
		for i := range l.heap {
			g += l.heap[i].n.task.Gops
		}
	}
	for _, m := range r.aside {
		if m != n {
			g += m.task.Gops
		}
	}
	return g
}

// applyOperatingPoints applies the governor's current DVFS prescription,
// so scoring, execution time and draw all see the throttled (or restored)
// operating points. Tasks already executing keep the span and energy they
// were scheduled with; only new placements are reshaped — the DVFS
// transition model.
func (r *Runtime) applyOperatingPoints() {
	r.refreshShape()
	for i, dev := range r.devices {
		st, p := &r.state[i], r.points[i]
		if p == st.point {
			continue
		}
		k := obs.GovernorThrottled
		if p < st.point {
			k = obs.GovernorRestored
		}
		st.point = p
		r.emit(obs.Event{At: r.eng.Now(), Kind: k, Device: dev.ID, Value: float64(p)})
	}
}

// place tries to start n on its best-scoring device now. Capacity comes
// from the dispatch call's refreshShape snapshot; Claim stays the
// authority, so a capacity change racing with the snapshot is caught at
// admission.
func (r *Runtime) place(n *node) outcome {
	t := &n.task
	ready := 0.0
	if t.Mold != nil {
		ready = r.readyGops(n)
	}
	best, width := -1, 0
	bestScore := 0.0
	for di := range r.devices {
		if r.capacity[di] < t.Cores {
			// The fleet behind this device lost the capacity to ever fit
			// the task (crash or degrade) — permanently unfit, not a
			// transient stall.
			continue
		}
		if s, w, ok := r.score(t, di, ready); ok && (best == -1 || s < bestScore) {
			best, bestScore, width = di, s, w
		}
	}
	if best == -1 {
		return skipped // no device free for this task right now
	}
	watts := r.taskDrawW(t, best, width)
	switch r.claim(best, width, watts) {
	case power.NoCores:
		if r.state[best].cores+width <= r.capacity[best] {
			// Only sibling jobs' grants stand in the way. End the round
			// here so RunContext suspends the job at this instant instead
			// of stepping on (see suspend).
			r.stalled = grant{best, width}
			return stalled
		}
		// The device shrank under this job's own grants: leave the task
		// queued until they come back.
		r.blocked = true
		return skipped
	case power.NoWatts:
		// The placement fits the core budget but not the watt budget:
		// park. A PackAndThrottle governor may have stepped the device
		// down, so the next attempt re-scores at the cheaper point.
		r.emitPower(obs.PowerRefused, n, best, watts)
		r.blocked = true
		r.applyOperatingPoints()
		return skipped
	}
	r.emitPower(obs.PowerAdmitted, n, best, watts)
	n.queued = false
	r.nready--
	r.start(n, best, width, watts)
	return placed
}

// claim wins fleet cores and watts for a placement on device di. The cores
// suspend reserved for this placement are spent first, and returned if the
// watts are refused.
func (r *Runtime) claim(di, cores int, watts energy.Watts) power.Verdict {
	id := r.devices[di].ID
	if r.reserve != (grant{di, cores}) {
		return r.adm.Claim(id, cores, watts)
	}
	r.reserve = grant{}
	v := r.adm.Claim(id, 0, watts)
	if v != power.Granted {
		r.adm.Release(id, cores, 0)
	}
	return v
}

// dropReserve returns a fleet grant suspend reserved but no placement spent.
func (r *Runtime) dropReserve() {
	if g := r.reserve; g.cores > 0 {
		r.adm.Release(r.devices[g.dev].ID, g.cores, 0)
		r.reserve = grant{}
	}
}

// suspend parks a job whose next placement is stalled only by sibling
// jobs' grants, without advancing its clock. Stepping on instead would
// start the task later on the job's clock than an uncontended run does,
// by an amount set by goroutine interleaving; resuming at the same instant
// keeps every job's schedule the one it has alone. While parked the job
// holds no core grant (its running tasks pause with its clock; their watts
// stay claimed), so parked jobs never wait on one another, and it resumes
// once those grants plus the stalled placement fit the fleet in one step.
func (r *Runtime) suspend(ctx context.Context) error {
	want := make([]int, len(r.devices))
	for i := range r.state {
		if h := &r.state[i]; h.cores > 0 {
			want[i] = h.cores
			r.adm.Release(r.devices[i].ID, h.cores, 0)
			h.cores = 0
		}
	}
	st := r.stalled
	claim := make([]int, len(want))
	for {
		changed := r.adm.Changed()
		copy(claim, want)
		if st.cores > 0 {
			r.refreshShape()
			if want[st.dev]+st.cores > r.capacity[st.dev] {
				// A sibling applied a fault meanwhile; the next round
				// re-places the task.
				st = grant{}
			} else {
				claim[st.dev] += st.cores
			}
		}
		if r.adm.Reacquire(r.devices, claim) {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i, n := range want {
		r.state[i].cores += n
	}
	r.reserve = st
	return nil
}

// emitPower reports a watt-budget admission outcome for running n on
// device di. Only a finite cap can refuse a draw, so an uncapped ledger's
// grants go unreported; TaskStarted carries the draw either way.
func (r *Runtime) emitPower(k obs.Kind, n *node, di int, watts energy.Watts) {
	if !r.capped {
		return
	}
	r.emit(obs.Event{At: r.eng.Now(), Kind: k, Task: n.task.Name, Device: r.devices[di].ID, Value: float64(watts)})
}

// launch builds one execution of n on device di at the given width: the
// cores and watts are held, the completion event is scheduled (stretched
// by any silent slowdown), and the straggler watchdog is armed. The caller
// has already won admission for the cores and the watts (the task's draw
// at this width), and scored the device alive with the cores free; launch
// panics if it is not.
func (r *Runtime) launch(n *node, di, width int, watts energy.Watts, hedge bool) *exec {
	t := &n.task
	st := &r.state[di]
	if dev := r.devices[di]; st.lost || st.cores+width > dev.Spec.Cores {
		panic(fmt.Sprintf("taskrt: placing %s on %s: %d of %d cores held, lost=%v, want %d more",
			t.Name, dev.ID, st.cores, dev.Spec.Cores, st.lost, width))
	}
	st.cores += width
	st.watts += watts
	now := r.eng.Now()
	factor := st.slowdown
	expected := r.execTime(t, di, width)
	actual := sim.Time(float64(expected) * factor)
	ex := &exec{
		dev: di, cores: width, watts: watts,
		energy:   energy.Joules(float64(r.energyFor(t, di, width)) * float64(power.UndervoltPowerScale(t.Undervolt)) * factor),
		start:    now,
		expected: expected,
		finish:   now + actual,
		hedge:    hedge,
	}
	ex.done = r.eng.Schedule(actual, func() { r.complete(n, ex) })
	if !hedge && r.hedgePol.Enabled() && expected > 0 {
		delay := sim.Time(float64(expected) * r.hedgePol.Multiplier)
		ex.watchdog = r.eng.Schedule(delay, func() { r.straggler(n, ex) })
	}
	return ex
}

// start runs n on device di at the given width as the primary execution.
// The caller has already won admission for those cores and the watts of
// draw.
func (r *Runtime) start(n *node, di, width int, watts energy.Watts) {
	t := &n.task
	dev := r.devices[di]
	n.started = true
	n.hedges = 0
	r.emit(obs.Event{At: r.eng.Now(), Kind: obs.TaskPlaced, Task: t.Name, Device: dev.ID, Value: float64(width)})
	n.primary = r.launch(n, di, width, watts, false)
	n.record.Device = dev.ID
	n.record.Class = dev.Spec.Class
	n.record.Start = n.primary.start
	n.record.EnergyJ = n.primary.energy
	n.record.DrawW = n.primary.watts
	n.record.Hedged = false
	n.record.Attempts++
	r.running[n] = struct{}{}
	r.emit(obs.Event{At: n.record.Start, Kind: obs.TaskStarted, Task: t.Name, Device: dev.ID, Value: float64(n.record.DrawW)})
}

// releaseExec returns one execution's cores and ledger grants.
func (r *Runtime) releaseExec(ex *exec) {
	st := &r.state[ex.dev]
	st.cores -= ex.cores
	st.watts -= ex.watts
	r.adm.Release(r.devices[ex.dev].ID, ex.cores, ex.watts)
}

// wastedJoules is the energy a cancelled execution burned up to now.
func (r *Runtime) wastedJoules(ex *exec) energy.Joules {
	return energy.Joules(float64(ex.watts) * sim.ToSeconds(r.eng.Now()-ex.start))
}

// straggler is the watchdog event: ex has been running for Multiplier ×
// its expected span without completing. The observation is folded into
// placement scoring and, budget and admission permitting, a speculative
// replica launches on a different device.
func (r *Runtime) straggler(n *node, ex *exec) {
	if n.done || n.primary != ex {
		return // completed, revoked or replaced since the watchdog was armed
	}
	now := r.eng.Now()
	elapsed := now - ex.start
	from := r.devices[ex.dev]
	if !ex.flagged {
		ex.flagged = true
		stretch := 0.0
		if ex.expected > 0 {
			stretch = float64(elapsed) / float64(ex.expected)
		}
		r.emit(obs.Event{At: now, Kind: obs.HedgeArmed, Task: n.task.Name, Device: from.ID, Value: stretch})
	}
	if ex.expected > 0 {
		r.noteSuspect(ex.dev, float64(elapsed)/float64(ex.expected))
	}
	if n.hedge != nil || n.hedges >= r.hedgePol.maxHedges() {
		return
	}
	// Pick the best-scoring different device, preferring a different
	// *class*: a slowdown the cost model cannot see is often correlated
	// across siblings of the straggler's class (shared thermal budget,
	// firmware, undervolt guardband), so a replica diversifies across
	// classes when it can and falls back to a same-class sibling only when
	// no foreign class fits. Scoring already includes witnessed suspicion,
	// so among foreign devices a known-degraded one loses to a clean one.
	best, width, foreign := -1, 0, false
	bestScore := 0.0
	ready := 0.0
	if n.task.Mold != nil {
		ready = r.readyGops(n)
	}
	r.refreshShape()
	for di, dev := range r.devices {
		if di == ex.dev {
			continue
		}
		if r.capacity[di] < n.task.Cores {
			continue
		}
		s, w, ok := r.score(&n.task, di, ready)
		if !ok {
			continue
		}
		df := dev.Spec.Class != from.Spec.Class
		if best == -1 || (df && !foreign) || (df == foreign && s < bestScore) {
			best, bestScore, width, foreign = di, s, w, df
		}
	}
	rearm := func(dev, cause string) {
		// No replica this round (no device, or admission refused). Re-check
		// after another expected span; the primary completing first turns
		// the re-armed watchdog into a no-op.
		r.emit(obs.Event{At: now, Kind: obs.HedgeDenied, Task: n.task.Name, Device: dev, Detail: cause})
		ex.watchdog = r.eng.Schedule(ex.expected, func() { r.straggler(n, ex) })
	}
	if best == -1 {
		rearm("", "no-device")
		return
	}
	id := r.devices[best].ID
	watts := r.taskDrawW(&n.task, best, width)
	switch r.adm.Claim(id, width, watts) {
	case power.NoCores:
		rearm(id, "cores")
		return
	case power.NoWatts:
		// Hedges pay their way under the power cap: a replica that does
		// not fit the watt budget is denied, never force-admitted.
		r.emitPower(obs.PowerRefused, n, best, watts)
		rearm(id, "watts")
		return
	}
	r.emitPower(obs.PowerAdmitted, n, best, watts)
	n.hedges++
	n.hedge = r.launch(n, best, width, watts, true)
	r.emit(obs.Event{At: now, Kind: obs.HedgeLaunched, Task: n.task.Name, Device: id, Detail: "from " + from.ID})
}

// complete finishes one execution of n: the winner's device and admission
// grants are returned, a racing loser is cancelled deterministically (its
// burned energy accounted as hedge waste), the SDC oracle is consulted on
// the committed record, and the node either finishes or re-queues.
func (r *Runtime) complete(n *node, ex *exec) {
	t := &n.task
	now := r.eng.Now()
	delete(r.running, n)
	r.releaseExec(ex)
	ex.watchdog.Cancel()
	var loser *exec
	if ex == n.primary {
		loser = n.hedge
	} else {
		loser = n.primary
	}
	if loser != nil {
		// First completion wins: cancel the loser and return its grants.
		loser.done.Cancel()
		loser.watchdog.Cancel()
		r.releaseExec(loser)
		wasted := r.wastedJoules(loser)
		k := obs.HedgeCancelled
		if ex.hedge {
			k = obs.HedgeWon
		}
		if loser.expected > 0 && now-loser.start > loser.expected {
			// Whichever side lost, if it overran its expected span the
			// cancellation is evidence of slowness: remember the stretch (a
			// lower bound — the loser never finished) so placement and later
			// hedges route around the device. This also teaches on losing
			// *hedges*, which carry no watchdog of their own.
			r.noteSuspect(loser.dev, float64(now-loser.start)/float64(loser.expected))
		}
		r.emit(obs.Event{At: now, Kind: k, Task: t.Name, Device: r.devices[ex.dev].ID, Value: float64(wasted)})
	}
	n.primary, n.hedge = nil, nil
	// Commit the winner. Start stays the primary's launch instant so
	// End-Start is the task's true latency including the straggling window,
	// not just the replica's run.
	dev := r.devices[ex.dev]
	n.record.Device = dev.ID
	n.record.Class = dev.Spec.Class
	n.record.End = now
	n.record.EnergyJ = ex.energy
	n.record.DrawW = ex.watts
	n.record.Hedged = ex.hedge
	if r.corrupt != nil && r.corrupt(n.record) {
		if t.Critical {
			// The replica vote disagrees: corruption detected, re-execute.
			n.started = false
			r.retry(n, "sdc")
			r.dispatch()
			return
		}
		n.record.Corrupted = true
	}
	r.finishNode(n)
	r.dispatch()
}

// finishNode commits a successful execution: successors are released, the
// checkpoint schedule advances, and pending fault events are cancelled once
// the whole graph is done (a failure process sampled beyond the job's
// lifetime must not stretch the run).
func (r *Runtime) finishNode(n *node) {
	n.done = true
	r.inDAG--
	n.deadline.Cancel()
	if n.task.Fn != nil && !n.record.Shed {
		n.task.Fn()
	}
	if rec := &n.record; rec.Shed {
		r.emit(obs.Event{At: rec.End, Kind: obs.TaskShed, Task: rec.Name, Detail: "deadline"})
	} else {
		r.emit(obs.Event{At: rec.End, Kind: obs.TaskCompleted, Task: rec.Name, Device: rec.Device,
			Value: float64(rec.EnergyJ), Detail: completionDetail(rec)})
	}
	for _, s := range n.succ {
		s.deps--
		if s.deps == 0 && !s.done {
			r.enqueue(s)
		}
	}
	r.maybeCheckpoint(n)
	if r.inDAG == 0 {
		for _, h := range r.faultEvents {
			h.Cancel()
		}
		r.faultEvents = r.faultEvents[:0]
	}
}

// completionDetail flags how a committed execution differs from a clean
// primary run.
func completionDetail(rec *Record) string {
	switch {
	case rec.Hedged && rec.Corrupted:
		return "hedged,corrupted"
	case rec.Hedged:
		return "hedged"
	case rec.Corrupted:
		return "corrupted"
	}
	return ""
}

// maybeCheckpoint advances the checkpoint schedule after n completed and,
// every ckptEvery completions, starts an asynchronous capture of all not-
// yet-persisted outputs that commits cost(bytes) later.
func (r *Runtime) maybeCheckpoint(n *node) {
	if r.ckptEvery <= 0 {
		return
	}
	r.sinceCkpt++
	for _, d := range n.task.Out {
		r.ckptBytes += d.Size
	}
	for _, d := range n.task.InOut {
		r.ckptBytes += d.Size
	}
	if r.sinceCkpt < r.ckptEvery {
		return
	}
	r.sinceCkpt = 0
	bytes := r.ckptBytes
	r.ckptBytes = 0
	var snap []*node
	for _, m := range r.nodes {
		if m.done && !m.persisted {
			snap = append(snap, m)
		}
	}
	if len(snap) == 0 {
		return
	}
	var cost sim.Time
	if r.ckptCost != nil {
		cost = r.ckptCost(bytes)
	}
	start := r.eng.Now()
	r.eng.Schedule(cost, func() {
		committed := 0
		for _, m := range snap {
			// A crash inside the checkpoint window invalidates members of
			// the snapshot; only still-done nodes commit.
			if m.done {
				m.persisted = true
				committed++
			}
		}
		r.emit(obs.Event{At: start, Kind: obs.CheckpointBegin, Value: float64(bytes)})
		r.emit(obs.Event{At: r.eng.Now(), Kind: obs.CheckpointCommit, Value: float64(committed)})
	})
}

// budget returns n's failure attempt budget.
func (r *Runtime) budget(n *node) int {
	if n.task.Retry > 0 {
		return n.task.Retry
	}
	return r.retryMax
}

// retry re-queues a failed execution with exponential backoff, or records
// the terminal ErrRetriesExhausted failure once the budget is spent.
func (r *Runtime) retry(n *node, reason string) {
	n.attempts++
	if budget := r.budget(n); n.attempts > budget {
		if r.failErr == nil {
			r.failErr = fmt.Errorf("taskrt: task %q gave up after %d failed attempts (%s): %w",
				n.task.Name, n.attempts, reason, ErrRetriesExhausted)
			r.emit(obs.Event{At: r.eng.Now(), Kind: obs.TaskFailed, Task: n.task.Name, Detail: reason})
		}
		return
	}
	r.emitRetried(n, reason)
	backoff := r.retryBackoff << uint(n.attempts-1)
	r.eng.Schedule(backoff, func() {
		// deps may have grown since the revocation if a predecessor's
		// output was invalidated by the same device loss — then the
		// completion path re-enqueues this node, not the backoff timer.
		if n.deps == 0 && !n.done && !n.started && !n.queued {
			r.enqueue(n)
			r.dispatch()
		}
	})
}

// emitRetried reports n re-queued after a failed or invalidated execution.
func (r *Runtime) emitRetried(n *node, reason string) {
	r.emit(obs.Event{At: r.eng.Now(), Kind: obs.TaskRetried, Task: n.task.Name, Value: float64(n.attempts), Detail: reason})
}

// FailDevice fails the named device mid-run: in-flight tasks on it are
// revoked (their grants returned, their executions re-queued under the
// retry budget), the device is marked lost so placement routes around it,
// and completed-but-unpersisted outputs resident on the device
// are invalidated and scheduled for re-execution after the restore cost —
// unless a committed checkpoint already captured them. It returns the
// revocation and invalidation counts; failing an unknown or already-failed
// device is a no-op.
func (r *Runtime) FailDevice(id string) (revoked, restored int) {
	i := r.deviceIndex(id)
	if i < 0 || r.state[i].lost {
		return 0, 0
	}
	// Revoke in-flight executions, in deterministic submission order. A
	// node may hold two executions (primary + hedge) on different devices;
	// losing the hedge's device cancels just the replica, while losing the
	// primary's device promotes a surviving replica instead of retrying.
	for _, n := range r.nodes {
		if _, ok := r.running[n]; !ok {
			continue
		}
		if h := n.hedge; h != nil && h.dev == i {
			h.done.Cancel()
			h.watchdog.Cancel()
			r.releaseExec(h)
			wasted := r.wastedJoules(h)
			n.hedge = nil
			r.emit(obs.Event{At: r.eng.Now(), Kind: obs.HedgeCancelled, Task: n.task.Name, Device: id, Value: wasted})
			revoked++
		}
		p := n.primary
		if p == nil || p.dev != i {
			continue
		}
		p.done.Cancel()
		p.watchdog.Cancel()
		r.releaseExec(p)
		revoked++
		if h := n.hedge; h != nil {
			// The straggler died under the watchdog's replica: promote the
			// hedge to sole execution — no retry, no attempt charged.
			n.primary = h
			n.hedge = nil
			r.emit(obs.Event{At: r.eng.Now(), Kind: obs.HedgePromoted, Task: n.task.Name, Device: r.devices[h.dev].ID})
			continue
		}
		n.primary = nil
		delete(r.running, n)
		n.started = false
		r.retry(n, "crash")
	}
	r.state[i].lost, r.state[i].lostAt = true, r.eng.Now()

	// Invalidate completed outputs that lived on the device and were never
	// checkpointed: they are gone, so any task whose output is still needed
	// (a pending successor, or a terminal output) must re-execute. The
	// closure is transitive — a re-executing task needs its inputs, so an
	// un-persisted predecessor on the lost device is dragged back in too —
	// which is exactly the "restart from zero vs restart from the last
	// snapshot" trade the checkpoint option buys out of.
	invalSet := make(map[*node]bool)
	for changed := true; changed; {
		changed = false
		for _, n := range r.nodes {
			if !n.done || n.persisted || n.record.Shed || n.record.Device != id || invalSet[n] {
				continue
			}
			needed := len(n.succ) == 0
			for _, s := range n.succ {
				if !s.done || invalSet[s] {
					needed = true
					break
				}
			}
			if needed {
				invalSet[n] = true
				changed = true
			}
		}
	}
	// Deterministic processing order: nodes slice order, not map order.
	var inval []*node
	for _, n := range r.nodes {
		if invalSet[n] {
			inval = append(inval, n)
		}
	}
	var restoreBytes int64
	for _, n := range inval {
		n.done = false
		n.started = false
		r.inDAG++
	}
	for _, n := range inval {
		for _, d := range n.task.Out {
			restoreBytes += d.Size
		}
		for _, d := range n.task.InOut {
			restoreBytes += d.Size
		}
		for _, s := range n.succ {
			if !s.done && !s.started {
				s.deps++
				r.unready(s)
			}
		}
	}
	var delay sim.Time
	if r.restoreCost != nil && restoreBytes > 0 {
		delay = r.restoreCost(restoreBytes)
	}
	restored = len(inval)
	for _, n := range inval {
		n := n
		r.emitRetried(n, "restore")
		r.eng.Schedule(delay, func() {
			if n.deps == 0 && !n.done && !n.started && !n.queued {
				r.enqueue(n)
				r.dispatch()
			}
		})
	}
	r.emit(obs.Event{At: r.eng.Now(), Kind: obs.DeviceLost, Device: id, Value: float64(revoked),
		Detail: fmt.Sprintf("revoked=%d restored=%d", revoked, restored)})
	r.dispatch()
	return revoked, restored
}

// deviceIndex returns the index of the named device, or -1.
func (r *Runtime) deviceIndex(id string) int {
	for i, d := range r.devices {
		if d.ID == id {
			return i
		}
	}
	return -1
}

// Result summarises a completed run.
type Result struct {
	Makespan sim.Time
	Records  []Record
	// EnergyJ is the summed dynamic task energy.
	EnergyJ energy.Joules
	// Uptime is, per device (indexed like the runtime's devices), how long
	// it was alive on the run's clock: until its loss, or the makespan.
	// Idle power is drawn over exactly this span.
	Uptime []sim.Time
	// Counts is the run's lifecycle tally, folded from its events.
	obs.Counts
}

// Run executes the submitted graph to completion and returns the trace.
// It fails if tasks remain blocked (a dependence cycle cannot occur by
// construction, so leftovers mean no compatible device exists).
func (r *Runtime) Run() (*Result, error) { return r.RunContext(context.Background()) }

// RunContext executes the submitted graph to completion, honouring ctx:
// cancellation or deadline expiry is checked between every simulated event,
// aborts the run with the context's error, and returns any admission grants
// held by in-flight tasks so sibling runtimes can make progress. When a
// placement is stalled by sibling runtimes' grants on the shared ledger,
// the job suspends until capacity is released elsewhere (or ctx fires) —
// the job's virtual clock does not advance while parked (see suspend). A
// runtime that returned an error must not be run again.
//
// Failure semantics: a task that exhausts its retry budget aborts the run
// with ErrRetriesExhausted; a task left unplaceable by device loss aborts
// with ErrDeviceLost; a task no device could ever host aborts with
// ErrNoDevice.
func (r *Runtime) RunContext(ctx context.Context) (*Result, error) {
	abort := func(err error) (*Result, error) {
		r.releaseHeld()
		return nil, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		if r.failErr != nil {
			return abort(r.failErr)
		}
		// Grab the change channel before dispatching: a release that races
		// with a refused Claim below closes this very channel, so the park
		// cannot miss the wakeup.
		changed := r.adm.Changed()
		r.blocked = false
		r.stalled = grant{}
		r.dispatch()
		// A reserve left unspent means the round placed the stalled task
		// elsewhere (the governor moved an operating point meanwhile).
		r.dropReserve()
		if r.stalled.cores > 0 {
			if err := r.suspend(ctx); err != nil {
				return abort(err)
			}
			continue
		}
		if r.eng.Step() {
			continue
		}
		// Event queue drained: either the graph is done, or progress needs
		// capacity (cores or watts) currently owned by a sibling job, or no
		// device can ever host a leftover task.
		if r.inDAG == 0 {
			break
		}
		if r.blocked {
			select {
			case <-changed:
			case <-ctx.Done():
				return abort(ctx.Err())
			}
			continue
		}
		for _, n := range r.nodes {
			if !n.done {
				return abort(r.stuckErr(n))
			}
		}
	}
	res := &Result{Counts: r.counts, Records: make([]Record, 0, len(r.nodes))}
	for _, n := range r.nodes {
		res.Records = append(res.Records, n.record)
		if n.record.End > res.Makespan {
			res.Makespan = n.record.End
		}
		res.EnergyJ += n.record.EnergyJ
	}
	res.Uptime = make([]sim.Time, len(r.state))
	for i, st := range r.state {
		res.Uptime[i] = res.Makespan
		if st.lost {
			res.Uptime[i] = min(st.lostAt, res.Makespan)
		}
	}
	return res, nil
}

// stuckErr explains why a leftover task can never run: ErrDeviceLost when a
// device that could have hosted it crashed or shrank below its width,
// ErrNoDevice otherwise.
func (r *Runtime) stuckErr(n *node) error {
	cores := n.task.Cores
	if cores <= 0 {
		cores = 1
	}
	lost := false
	r.refreshShape()
	for di, d := range r.devices {
		if d.Spec.Cores < cores || !classMatch(&n.task, d.Spec.Class) {
			continue
		}
		if r.state[di].lost || r.capacity[di] < cores {
			lost = true
		}
	}
	if lost {
		return fmt.Errorf("taskrt: task %q unplaceable after device loss: %w", n.task.Name, ErrDeviceLost)
	}
	return fmt.Errorf("taskrt: task %q never ran: %w", n.task.Name, ErrNoDevice)
}

// releaseHeld returns every admission grant — cores and watts — still held
// by in-flight tasks or reserved by suspend, so a cancelled job cannot
// strand fleet capacity or watt budget.
func (r *Runtime) releaseHeld() {
	r.dropReserve()
	for i := range r.state {
		if h := &r.state[i]; h.cores > 0 || h.watts > 0 {
			r.adm.Release(r.devices[i].ID, h.cores, h.watts)
			h.cores, h.watts = 0, 0
		}
	}
}
