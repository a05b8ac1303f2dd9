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
	"sort"
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
	// (negative cost, width, retry budget or deadline).
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

// Admission arbitrates real device capacity between runtimes that execute
// concurrently on independent virtual clocks (the multi-job engine). Each
// runtime schedules against its own platform mirror, but before a task may
// occupy cores it must win the corresponding capacity from the shared
// ledger, keyed by device ID — so the union of all placements never
// oversubscribes the physical fleet.
//
// Implementations must be safe for concurrent use. Changed returns a
// channel that is closed on the next Release after the call; a runtime
// grabs it before dispatching so a release racing with a failed
// TryAcquire can never be missed. Capacity reports a device's current
// total capacity — zero for a lost device — letting runtimes distinguish
// transient contention (park and wait) from permanent loss (re-place or
// fail with ErrDeviceLost).
type Admission interface {
	TryAcquire(deviceID string, cores int) bool
	Release(deviceID string, cores int)
	Changed() <-chan struct{}
	Capacity(deviceID string) int
}

// PowerAdmission arbitrates the fleet watt budget between runtimes, the
// power sibling of Admission: before a task may start, its dynamic draw
// must fit under the shared power cap on top of the fleet's static draw.
// A refused TryDraw parks the job on Changed exactly like a core-admission
// stall. OperatingPoint exposes the governor's current DVFS prescription
// for a device; the runtime applies it to its platform mirror before
// scoring, so throttling reshapes both execution time and draw.
// power.Ledger implements this; implementations must be safe for
// concurrent use.
type PowerAdmission interface {
	TryDraw(deviceID string, watts energy.Watts) bool
	ReleaseDraw(deviceID string, watts energy.Watts)
	Changed() <-chan struct{}
	OperatingPoint(deviceID string) int
}

// Data is a named data region tasks depend on.
type Data struct {
	Name string
	Size int64

	lastWriter *node
	readers    []*node
	version    int
}

// Dep is a dependence declaration.
type Dep int

const (
	// In: the task reads the region.
	In Dep = iota
	// Out: the task overwrites the region.
	Out
	// InOut: the task reads and writes the region.
	InOut
)

// Task is one unit of work.
type Task struct {
	Name string
	// Gops is the task's computational cost in giga-operations.
	Gops float64
	// Cores is the requested parallel width on the chosen device
	// (default 1).
	Cores int
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

// exec is one in-flight execution of a task: the primary placement, or a
// speculative hedge replica racing it on a different device.
type exec struct {
	dev      *hw.Device
	cores    int
	watts    energy.Watts // watt-ledger grant held (0 without a power ledger)
	draw     energy.Watts // modelled dynamic draw (waste accounting)
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
	task    Task
	id      int
	deps    int     // unsatisfied predecessor count
	succ    []*node // successors
	pred    []*node // predecessors (for re-execution after invalidation)
	done    bool
	started bool

	attempts  int   // failed executions so far (crash/sdc)
	persisted bool  // output captured by a committed checkpoint
	primary   *exec // the scheduled placement while running
	hedge     *exec // speculative replica racing the primary, if any
	hedges    int   // speculative replicas launched for this task
	deadline  sim.Handle

	record Record
}

// Record is the execution trace of one task.
type Record struct {
	ID       int
	Name     string
	Device   string
	Class    hw.Class
	Start    sim.Time
	End      sim.Time
	EnergyJ  energy.Joules
	Critical bool
	// Undervolt is the task's undervolt level (0 = guardband).
	Undervolt int
	// DrawW is the dynamic draw the execution held while running.
	DrawW energy.Watts
	// Attempts counts executions of the task (1 = first try succeeded).
	Attempts int
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
	ready  []*node
	nextID int
	inDAG  int // submitted, not finished

	adm     Admission               // nil: sole owner of its devices
	pow     PowerAdmission          // nil: no fleet watt budget
	sink    func(obs.Event)         // lifecycle observer (nil: none)
	held    map[string]int          // admission grants currently held, by device ID
	heldW   map[string]energy.Watts // watt grants currently held, by device ID
	blocked bool                    // a ready task lost admission this dispatch round

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
	slowdown map[string]float64 // hidden execution-time stretch per device
	suspect  map[string]float64 // observed slowdown folded into scoring

	// Checkpoint state.
	ckptEvery   int
	ckptCost    func(bytes int64) sim.Time
	restoreCost func(bytes int64) sim.Time
	sinceCkpt   int
	ckptBytes   int64

	retries        int
	restores       int
	ckpts          int
	sdcDetected    int
	sdcSilent      int
	stragglers     int
	hedgesLaunched int
	hedgesWon      int
	hedgesDenied   int
	hedgeWastedJ   energy.Joules
	deadlineMisses int
	shedTasks      int
}

// New creates a runtime over the given devices.
func New(eng *sim.Engine, devices []*hw.Device, policy Policy) *Runtime {
	return &Runtime{
		eng: eng, devices: devices, policy: policy,
		held:         make(map[string]int),
		heldW:        make(map[string]energy.Watts),
		running:      make(map[*node]struct{}),
		retryBackoff: time.Millisecond,
	}
}

// SetAdmission installs a shared capacity ledger. Must be called before the
// first Submit. With no admission the runtime assumes exclusive ownership
// of its devices, which is the historical single-tenant behaviour.
func (r *Runtime) SetAdmission(a Admission) { r.adm = a }

// SetPowerAdmission installs the shared fleet watt ledger. Must be called
// before the first Submit. With no power admission placements are gated by
// core capacity alone — the historical behaviour.
func (r *Runtime) SetPowerAdmission(p PowerAdmission) { r.pow = p }

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
	if factor <= 1 {
		return
	}
	old := 1.0
	if r.slowdown == nil {
		r.slowdown = make(map[string]float64)
	} else if f, ok := r.slowdown[id]; ok {
		old = f
	}
	if factor <= old {
		return
	}
	r.slowdown[id] = factor
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
			if ex == nil || ex.dev.ID != id {
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

// deviceSlowdown is the hidden execution-time stretch of a device.
func (r *Runtime) deviceSlowdown(id string) float64 {
	if f, ok := r.slowdown[id]; ok {
		return f
	}
	return 1
}

// noteSuspect folds an observed slowdown into placement scoring: once a
// straggler exposes a degraded device, future placements see its expected
// time stretched by the largest factor witnessed so far. Only elapsed time
// is used — the runtime learns from what it measured, not from the fault
// plan it cannot see.
func (r *Runtime) noteSuspect(id string, observed float64) {
	if observed <= 1 {
		return
	}
	if r.suspect == nil {
		r.suspect = make(map[string]float64)
	}
	if observed > r.suspect[id] {
		r.suspect[id] = observed
	}
}

// ScheduleFault registers fn to run at the given virtual time *while the
// graph is still executing*: pending fault events are cancelled the moment
// the graph completes, so a failure process sampled beyond the job's
// lifetime cannot stretch the run.
func (r *Runtime) ScheduleFault(at sim.Time, fn func()) {
	r.faultEvents = append(r.faultEvents, r.eng.ScheduleAt(at, fn))
}

// Checkpoints reports how many checkpoints have committed.
func (r *Runtime) Checkpoints() int { return r.ckpts }

// SetSink installs the lifecycle observer. Must be called before the first
// Submit. Every lifecycle transition — queue, placement, start, completion,
// shed, retry, failure, device loss, checkpoint, hedge, deadline miss,
// watt admission, DVFS change — reaches it as one obs.Event on the
// goroutine driving the runtime, stamped with virtual time, task and
// device; the owner stamps Job. DESIGN.md §5 lists each kind's Value and
// Detail.
func (r *Runtime) SetSink(fn func(obs.Event)) { r.sink = fn }

// emit reports one lifecycle event to the sink.
func (r *Runtime) emit(e obs.Event) {
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
	r.deadlineMisses++
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
		r.shedTasks++
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

// enqueue adds a ready node, keeping the queue priority-sorted.
func (r *Runtime) enqueue(n *node) {
	r.ready = append(r.ready, n)
	sort.SliceStable(r.ready, func(i, j int) bool {
		if r.ready[i].task.Priority != r.ready[j].task.Priority {
			return r.ready[i].task.Priority > r.ready[j].task.Priority
		}
		return r.ready[i].id < r.ready[j].id
	})
}

// unready removes a node from the ready queue if present.
func (r *Runtime) unready(n *node) {
	for i, m := range r.ready {
		if m == n {
			r.ready = append(r.ready[:i], r.ready[i+1:]...)
			return
		}
	}
}

func (r *Runtime) inReady(n *node) bool {
	for _, m := range r.ready {
		if m == n {
			return true
		}
	}
	return false
}

// compatible reports whether dev can run t.
func compatible(t Task, dev *hw.Device) bool {
	if !dev.Healthy() {
		return false
	}
	if dev.Spec.Cores < t.Cores {
		return false
	}
	return classMatch(t, dev.Spec.Class)
}

// classMatch reports whether t accepts the given device class.
func classMatch(t Task, c hw.Class) bool {
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

// score returns the policy objective for running t on dev now (lower is
// better); ok=false if the device cannot take the task at this instant.
func (r *Runtime) score(t Task, dev *hw.Device) (float64, bool) {
	if !compatible(t, dev) {
		return 0, false
	}
	free := dev.Spec.Cores - dev.BusyCores()
	if free < t.Cores {
		return 0, false
	}
	execSec := sim.ToSeconds(dev.ExecTime(t.Gops, t.Cores))
	// Fold in witnessed slowdowns: a device exposed as degraded by the
	// straggler watchdog is scored at its observed stretch, so placement
	// routes around it without ever reading the (hidden) fault state.
	if f, ok := r.suspect[dev.ID]; ok {
		execSec *= f
	}
	energyJ := dev.EnergyFor(t.Gops, t.Cores) * power.UndervoltPowerScale(t.Undervolt)
	switch r.policy {
	case MinEnergy:
		return energyJ, true
	case MinEDP:
		return energyJ * execSec, true
	default:
		return execSec, true
	}
}

// applyOperatingPoints syncs the platform mirror to the governor's current
// DVFS prescription, so scoring, execution time and draw all see the
// throttled (or restored) operating points. Tasks already executing keep
// the span and energy they were scheduled with; only new placements are
// reshaped — the DVFS transition model.
func (r *Runtime) applyOperatingPoints() {
	if r.pow == nil {
		return
	}
	for _, dev := range r.devices {
		if p := r.pow.OperatingPoint(dev.ID); p != dev.StateIndex() {
			from := dev.StateIndex()
			if err := dev.SetState(p); err != nil {
				// A mirror with fewer states than the reference ladder is a
				// construction bug; stay at the current point.
				continue
			}
			k := obs.GovernorThrottled
			if p < from {
				k = obs.GovernorRestored
			}
			r.emit(obs.Event{At: r.eng.Now(), Kind: k, Device: dev.ID, Value: float64(p)})
		}
	}
}

// taskDrawW is the dynamic draw a task would hold on dev at its current
// operating point, shrunk by the task's undervolt level.
func taskDrawW(t Task, dev *hw.Device) energy.Watts {
	return dev.DynamicWatts(t.Cores) * power.UndervoltPowerScale(t.Undervolt)
}

// dispatch assigns as many ready tasks as possible.
func (r *Runtime) dispatch() {
	r.applyOperatingPoints()
	for {
		assigned := false
		for qi := 0; qi < len(r.ready); qi++ {
			n := r.ready[qi]
			best := -1
			bestScore := 0.0
			for di, dev := range r.devices {
				if r.adm != nil && r.adm.Capacity(dev.ID) < n.task.Cores {
					// The fleet behind this device lost the capacity to ever
					// fit the task (crash or degrade) — permanently unfit,
					// not a transient stall.
					continue
				}
				if s, ok := r.score(n.task, dev); ok && (best == -1 || s < bestScore) {
					best, bestScore = di, s
				}
			}
			if best == -1 {
				continue // no device free for this task right now
			}
			dev := r.devices[best]
			if r.adm != nil && !r.adm.TryAcquire(dev.ID, n.task.Cores) {
				// The fleet capacity behind this device is occupied by a
				// sibling job; leave the task queued and note the stall so
				// RunContext knows to wait for a global release.
				r.blocked = true
				continue
			}
			watts := energy.Watts(0)
			if r.pow != nil {
				watts = taskDrawW(n.task, dev)
				if !r.pow.TryDraw(dev.ID, watts) {
					// The placement fits the core budget but not the watt
					// budget: give the cores back and park. A PackAndThrottle
					// governor may have stepped the device down, so the next
					// dispatch round re-scores at the cheaper point.
					if r.adm != nil {
						r.adm.Release(dev.ID, n.task.Cores)
					}
					r.emitPower(obs.PowerRefused, n, dev, watts)
					r.blocked = true
					r.applyOperatingPoints()
					continue
				}
				r.emitPower(obs.PowerAdmitted, n, dev, watts)
			}
			r.ready = append(r.ready[:qi], r.ready[qi+1:]...)
			r.start(n, dev, watts)
			assigned = true
			break
		}
		if !assigned {
			return
		}
	}
}

// emitPower reports a watt-ledger admission outcome for running n on dev.
func (r *Runtime) emitPower(k obs.Kind, n *node, dev *hw.Device, watts energy.Watts) {
	r.emit(obs.Event{At: r.eng.Now(), Kind: k, Task: n.task.Name, Device: dev.ID, Value: float64(watts)})
}

// launch builds one execution of n on dev: the device meter is charged,
// the completion event is scheduled (stretched by any silent slowdown),
// and the held-grant maps advance. The caller has already won global
// admission for the cores and watts.
func (r *Runtime) launch(n *node, dev *hw.Device, watts energy.Watts, hedge bool) *exec {
	t := n.task
	if r.adm != nil {
		r.held[dev.ID] += t.Cores
	}
	if r.pow != nil {
		r.heldW[dev.ID] += watts
	}
	now := r.eng.Now()
	factor := r.deviceSlowdown(dev.ID)
	expected := dev.ExecTime(t.Gops, t.Cores)
	actual := sim.Time(float64(expected) * factor)
	ex := &exec{
		dev: dev, cores: t.Cores, watts: watts,
		draw:     taskDrawW(t, dev),
		energy:   energy.Joules(float64(dev.EnergyFor(t.Gops, t.Cores)) * float64(power.UndervoltPowerScale(t.Undervolt)) * factor),
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

// start runs n on dev as the primary execution. The caller has already won
// global admission for the task's cores (and watts of draw) when shared
// ledgers are installed.
func (r *Runtime) start(n *node, dev *hw.Device, watts energy.Watts) {
	t := n.task
	if err := dev.Acquire(t.Cores); err != nil {
		// Raced with another assignment; requeue and give back admission.
		if r.adm != nil {
			r.adm.Release(dev.ID, t.Cores)
		}
		if r.pow != nil {
			r.pow.ReleaseDraw(dev.ID, watts)
		}
		r.enqueue(n)
		return
	}
	n.started = true
	n.hedges = 0
	r.emit(obs.Event{At: r.eng.Now(), Kind: obs.TaskPlaced, Task: t.Name, Device: dev.ID, Value: float64(t.Cores)})
	n.primary = r.launch(n, dev, watts, false)
	n.record.Device = dev.ID
	n.record.Class = dev.Spec.Class
	n.record.Start = n.primary.start
	n.record.EnergyJ = n.primary.energy
	n.record.DrawW = n.primary.draw
	n.record.Hedged = false
	n.record.Attempts++
	r.running[n] = struct{}{}
	r.emit(obs.Event{At: n.record.Start, Kind: obs.TaskStarted, Task: t.Name, Device: dev.ID, Value: float64(n.record.DrawW)})
}

// releaseExec returns one execution's device cores and ledger grants.
func (r *Runtime) releaseExec(ex *exec) {
	ex.dev.Release(ex.cores)
	if r.adm != nil {
		r.held[ex.dev.ID] -= ex.cores
		r.adm.Release(ex.dev.ID, ex.cores)
	}
	if r.pow != nil {
		r.heldW[ex.dev.ID] -= ex.watts
		r.pow.ReleaseDraw(ex.dev.ID, ex.watts)
	}
}

// wastedJoules is the energy a cancelled execution burned up to now.
func (r *Runtime) wastedJoules(ex *exec) energy.Joules {
	return energy.Joules(float64(ex.draw) * sim.ToSeconds(r.eng.Now()-ex.start))
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
	if !ex.flagged {
		ex.flagged = true
		r.stragglers++
		stretch := 0.0
		if ex.expected > 0 {
			stretch = float64(elapsed) / float64(ex.expected)
		}
		r.emit(obs.Event{At: now, Kind: obs.HedgeArmed, Task: n.task.Name, Device: ex.dev.ID, Value: stretch})
	}
	if ex.expected > 0 {
		r.noteSuspect(ex.dev.ID, float64(elapsed)/float64(ex.expected))
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
	best, foreign := -1, false
	bestScore := 0.0
	for di, dev := range r.devices {
		if dev.ID == ex.dev.ID {
			continue
		}
		if r.adm != nil && r.adm.Capacity(dev.ID) < n.task.Cores {
			continue
		}
		s, ok := r.score(n.task, dev)
		if !ok {
			continue
		}
		df := dev.Spec.Class != ex.dev.Spec.Class
		if best == -1 || (df && !foreign) || (df == foreign && s < bestScore) {
			best, bestScore, foreign = di, s, df
		}
	}
	rearm := func() {
		// No replica this round (no device, or admission refused). Re-check
		// after another expected span; the primary completing first turns
		// the re-armed watchdog into a no-op.
		r.hedgesDenied++
		ex.watchdog = r.eng.Schedule(ex.expected, func() { r.straggler(n, ex) })
	}
	if best == -1 {
		rearm()
		return
	}
	dev := r.devices[best]
	if r.adm != nil && !r.adm.TryAcquire(dev.ID, n.task.Cores) {
		rearm()
		return
	}
	watts := energy.Watts(0)
	if r.pow != nil {
		watts = taskDrawW(n.task, dev)
		if !r.pow.TryDraw(dev.ID, watts) {
			// Hedges pay their way under the power cap: a replica that does
			// not fit the watt budget is denied, never force-admitted.
			if r.adm != nil {
				r.adm.Release(dev.ID, n.task.Cores)
			}
			r.emitPower(obs.PowerRefused, n, dev, watts)
			rearm()
			return
		}
		r.emitPower(obs.PowerAdmitted, n, dev, watts)
	}
	if err := dev.Acquire(n.task.Cores); err != nil {
		if r.adm != nil {
			r.adm.Release(dev.ID, n.task.Cores)
		}
		if r.pow != nil {
			r.pow.ReleaseDraw(dev.ID, watts)
		}
		rearm()
		return
	}
	n.hedges++
	r.hedgesLaunched++
	n.hedge = r.launch(n, dev, watts, true)
	r.emit(obs.Event{At: now, Kind: obs.HedgeLaunched, Task: n.task.Name, Device: dev.ID, Detail: "from " + ex.dev.ID})
}

// complete finishes one execution of n: the winner's device and admission
// grants are returned, a racing loser is cancelled deterministically (its
// burned energy accounted as hedge waste), the SDC oracle is consulted on
// the committed record, and the node either finishes or re-queues.
func (r *Runtime) complete(n *node, ex *exec) {
	t := n.task
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
		r.hedgeWastedJ += wasted
		k := obs.HedgeCancelled
		if ex.hedge {
			r.hedgesWon++
			k = obs.HedgeWon
		}
		if loser.expected > 0 && now-loser.start > loser.expected {
			// Whichever side lost, if it overran its expected span the
			// cancellation is evidence of slowness: remember the stretch (a
			// lower bound — the loser never finished) so placement and later
			// hedges route around the device. This also teaches on losing
			// *hedges*, which carry no watchdog of their own.
			r.noteSuspect(loser.dev.ID, float64(now-loser.start)/float64(loser.expected))
		}
		r.emit(obs.Event{At: now, Kind: k, Task: t.Name, Device: ex.dev.ID, Value: float64(wasted)})
	}
	n.primary, n.hedge = nil, nil
	// Commit the winner. Start stays the primary's launch instant so
	// End-Start is the task's true latency including the straggling window,
	// not just the replica's run.
	n.record.Device = ex.dev.ID
	n.record.Class = ex.dev.Spec.Class
	n.record.End = now
	n.record.EnergyJ = ex.energy
	n.record.DrawW = ex.draw
	n.record.Hedged = ex.hedge
	if r.corrupt != nil && r.corrupt(n.record) {
		if t.Critical {
			// The replica vote disagrees: corruption detected, re-execute.
			r.sdcDetected++
			n.started = false
			r.retry(n, "sdc")
			r.dispatch()
			return
		}
		n.record.Corrupted = true
		r.sdcSilent++
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
		r.ckpts++
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
	r.retries++
	r.emitRetried(n, reason)
	backoff := r.retryBackoff << uint(n.attempts-1)
	r.eng.Schedule(backoff, func() {
		// deps may have grown since the revocation if a predecessor's
		// output was invalidated by the same device loss — then the
		// completion path re-enqueues this node, not the backoff timer.
		if n.deps == 0 && !n.done && !n.started && !r.inReady(n) {
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
// retry budget), the mirror device is marked unhealthy so placement routes
// around it, and completed-but-unpersisted outputs resident on the device
// are invalidated and scheduled for re-execution after the restore cost —
// unless a committed checkpoint already captured them. It returns the
// revocation and invalidation counts; failing an unknown or already-failed
// device is a no-op.
func (r *Runtime) FailDevice(id string) (revoked, restored int) {
	var dev *hw.Device
	for _, d := range r.devices {
		if d.ID == id {
			dev = d
			break
		}
	}
	if dev == nil || !dev.Healthy() {
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
		if h := n.hedge; h != nil && h.dev.ID == id {
			h.done.Cancel()
			h.watchdog.Cancel()
			r.releaseExec(h)
			r.hedgeWastedJ += r.wastedJoules(h)
			n.hedge = nil
			revoked++
		}
		p := n.primary
		if p == nil || p.dev.ID != id {
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
			r.emit(obs.Event{At: r.eng.Now(), Kind: obs.HedgePromoted, Task: n.task.Name, Device: h.dev.ID})
			continue
		}
		n.primary = nil
		delete(r.running, n)
		n.started = false
		r.retry(n, "crash")
	}
	dev.Fail()

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
	r.restores += restored
	for _, n := range inval {
		n := n
		r.emitRetried(n, "restore")
		r.eng.Schedule(delay, func() {
			if n.deps == 0 && !n.done && !n.started && !r.inReady(n) {
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

// Result summarises a completed run.
type Result struct {
	Makespan sim.Time
	Records  []Record
	// EnergyJ is the summed dynamic task energy.
	EnergyJ energy.Joules
	// Retries counts re-queued executions after crashes or detected SDCs.
	Retries int
	// Restores counts completed tasks re-executed after a device loss
	// invalidated their un-checkpointed outputs.
	Restores int
	// Checkpoints counts committed asynchronous checkpoints.
	Checkpoints int
	// SDCDetected counts corruptions caught by the replica vote.
	SDCDetected int
	// SDCSilent counts corruptions that went undetected.
	SDCSilent int
	// Stragglers counts executions flagged by the watchdog as exceeding
	// the hedge policy's multiple of their expected span.
	Stragglers int
	// HedgesLaunched counts speculative replicas started.
	HedgesLaunched int
	// HedgesWon counts replicas that beat their straggling primary.
	HedgesWon int
	// HedgesDenied counts replica launches refused by device availability
	// or the core/watt ledgers.
	HedgesDenied int
	// HedgeWastedJ is the energy burned by cancelled losing executions —
	// the price of the insurance the hedge policy buys.
	HedgeWastedJ energy.Joules
	// DeadlineMisses counts tasks that passed their deadline.
	DeadlineMisses int
	// TasksShed counts tasks skipped by graceful degradation.
	TasksShed int
}

// Run executes the submitted graph to completion and returns the trace.
// It fails if tasks remain blocked (a dependence cycle cannot occur by
// construction, so leftovers mean no compatible device exists).
func (r *Runtime) Run() (*Result, error) { return r.RunContext(context.Background()) }

// RunContext executes the submitted graph to completion, honouring ctx:
// cancellation or deadline expiry is checked between every simulated event,
// aborts the run with the context's error, and returns any admission grants
// held by in-flight tasks so sibling runtimes can make progress. When the
// runtime shares devices through an Admission ledger and every ready task
// is stalled on foreign occupancy, the goroutine parks until capacity is
// released elsewhere (or ctx fires) — the job's virtual clock does not
// advance while parked. A runtime that returned an error must not be run
// again.
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
		// Grab the change channels before dispatching: a release that races
		// with a failed TryAcquire/TryDraw below closes these very channels,
		// so the park cannot miss the wakeup. A nil channel blocks forever
		// in the select, which is exactly right for an absent ledger.
		var changed, powChanged <-chan struct{}
		if r.adm != nil {
			changed = r.adm.Changed()
		}
		if r.pow != nil {
			powChanged = r.pow.Changed()
		}
		r.blocked = false
		r.dispatch()
		if r.eng.Step() {
			continue
		}
		// Event queue drained: either the graph is done, or progress needs
		// capacity (cores or watts) currently owned by a sibling job, or no
		// device can ever host a leftover task.
		if r.inDAG == 0 {
			break
		}
		if r.blocked && (r.adm != nil || r.pow != nil) {
			select {
			case <-changed:
			case <-powChanged:
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
	res := &Result{
		Retries:        r.retries,
		Restores:       r.restores,
		Checkpoints:    r.ckpts,
		SDCDetected:    r.sdcDetected,
		SDCSilent:      r.sdcSilent,
		Stragglers:     r.stragglers,
		HedgesLaunched: r.hedgesLaunched,
		HedgesWon:      r.hedgesWon,
		HedgesDenied:   r.hedgesDenied,
		HedgeWastedJ:   r.hedgeWastedJ,
		DeadlineMisses: r.deadlineMisses,
		TasksShed:      r.shedTasks,
	}
	for _, n := range r.nodes {
		res.Records = append(res.Records, n.record)
		if n.record.End > res.Makespan {
			res.Makespan = n.record.End
		}
		res.EnergyJ += n.record.EnergyJ
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
	for _, d := range r.devices {
		if d.Spec.Cores < cores || !classMatch(n.task, d.Spec.Class) {
			continue
		}
		if !d.Healthy() || (r.adm != nil && r.adm.Capacity(d.ID) < cores) {
			lost = true
		}
	}
	if lost {
		return fmt.Errorf("taskrt: task %q unplaceable after device loss: %w", n.task.Name, ErrDeviceLost)
	}
	return fmt.Errorf("taskrt: task %q never ran: %w", n.task.Name, ErrNoDevice)
}

// releaseHeld returns every admission grant — cores and watts — still held
// by in-flight tasks, so a cancelled job cannot strand fleet capacity or
// watt budget.
func (r *Runtime) releaseHeld() {
	if r.adm != nil {
		for id, n := range r.held {
			if n > 0 {
				r.adm.Release(id, n)
			}
			delete(r.held, id)
		}
	}
	if r.pow != nil {
		for id, w := range r.heldW {
			if w > 0 {
				r.pow.ReleaseDraw(id, w)
			}
			delete(r.heldW, id)
		}
	}
}
