// Package obs is the unified runtime observability layer of the LEGaTO
// reproduction: a typed, lock-cheap event bus that every subsystem
// publishes to, plus exporters that turn the session's traces and
// counters into standard tooling formats (Prometheus text exposition,
// Chrome trace_event JSON, Paraver text) — the role the BSC
// monitoring/tracing family plays around OmpSs in the paper's toolflow.
//
// Events carry virtual time (the emitting job's clock), the job, the
// task and the device, so a subscriber can reconstruct *why* a
// placement, hedge or throttle happened. Delivery is designed around two
// invariants:
//
//   - a session with no observer pays only a nil-check/atomic-load fast
//     path per would-be event (witnessed by BenchmarkObserverOverhead);
//   - a slow subscriber can never stall the dispatch loop: subscription
//     channels are bounded, an undeliverable event is dropped, and the
//     drop counter says how many.
//
// Synchronous observers (Bus.Observe) run under the bus lock in global
// sequence order; they must be fast and must not call back into the bus.
package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"legato/internal/sim"
)

// Kind enumerates the runtime event taxonomy (see DESIGN.md §5).
type Kind uint8

const (
	// TaskQueued: the task entered its job's dependence graph.
	TaskQueued Kind = iota
	// TaskPlaced: the task won device, core and watt admission.
	TaskPlaced
	// TaskStarted: the task began executing on a device.
	TaskStarted
	// TaskCompleted: the task committed an execution.
	TaskCompleted
	// TaskFailed: the task failed terminally (retries exhausted, strict
	// deadline miss); the job aborts with the matching typed error.
	TaskFailed
	// TaskRetried: a failed or corrupted execution was re-queued.
	TaskRetried
	// TaskShed: the task was skipped by graceful deadline degradation.
	TaskShed
	// CheckpointBegin: an asynchronous checkpoint capture started.
	CheckpointBegin
	// CheckpointCommit: the checkpoint committed after its write cost.
	CheckpointCommit
	// HedgeArmed: the straggler watchdog flagged a running execution.
	HedgeArmed
	// HedgeLaunched: a speculative replica started on another device.
	HedgeLaunched
	// HedgeWon: the replica beat the straggling primary.
	HedgeWon
	// HedgeCancelled: the replica lost the race and was cancelled.
	HedgeCancelled
	// HedgePromoted: the primary's device died and the replica became the
	// sole execution.
	HedgePromoted
	// DeadlineMissed: a task passed its virtual-clock deadline.
	DeadlineMissed
	// FaultInjected: the failure process applied a global crash or
	// degrade to the fleet (published exactly once per fault).
	FaultInjected
	// GovernorThrottled: the power governor stepped a device down its
	// DVFS ladder, as observed on the publishing job's platform mirror.
	GovernorThrottled
	// GovernorRestored: the governor stepped a device back toward
	// nominal.
	GovernorRestored
	// PowerAdmitted: the watt ledger granted a task's dynamic draw.
	PowerAdmitted
	// PowerRefused: the watt ledger refused a draw (cap pressure); the
	// placement parks or the hedge is denied.
	PowerRefused
	// DeviceLost: a job observed a device loss on its platform mirror
	// (revocations and restores in Detail).
	DeviceLost
	// HedgeDenied: the straggler watchdog could not launch a replica; the
	// cause is in Detail (no-device, cores, watts or device).
	HedgeDenied
)

// kindNames is the canonical Kind naming, used by String and the
// (un)marshalling of exported session dumps.
var kindNames = [...]string{
	TaskQueued:        "task-queued",
	TaskPlaced:        "task-placed",
	TaskStarted:       "task-started",
	TaskCompleted:     "task-completed",
	TaskFailed:        "task-failed",
	TaskRetried:       "task-retried",
	TaskShed:          "task-shed",
	CheckpointBegin:   "checkpoint-begin",
	CheckpointCommit:  "checkpoint-commit",
	HedgeArmed:        "hedge-armed",
	HedgeLaunched:     "hedge-launched",
	HedgeWon:          "hedge-won",
	HedgeCancelled:    "hedge-cancelled",
	HedgePromoted:     "hedge-promoted",
	DeadlineMissed:    "deadline-missed",
	FaultInjected:     "fault-injected",
	GovernorThrottled: "governor-throttled",
	GovernorRestored:  "governor-restored",
	PowerAdmitted:     "power-admitted",
	PowerRefused:      "power-refused",
	DeviceLost:        "device-lost",
	HedgeDenied:       "hedge-denied",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText renders the kind by name, so exported session dumps stay
// readable and stable across taxonomy growth.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name produced by MarshalText, including the
// "kind(N)" form String gives a kind outside the taxonomy, so every dump
// that encodes also decodes.
func (k *Kind) UnmarshalText(text []byte) error {
	name := string(text)
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	if num, ok := strings.CutPrefix(name, "kind("); ok {
		if n, err := strconv.ParseUint(strings.TrimSuffix(num, ")"), 10, 8); err == nil && Kind(n).String() == name {
			*k = Kind(n)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Event is one runtime observation. Seq is assigned by the bus in
// publication order; At is virtual time on the emitting job's clock
// (job clocks are private, so At values are comparable within a job,
// not across jobs). Value and Detail carry a kind-specific measurement
// and annotation (watts for power events, joules for completions and
// hedge resolutions, the retry reason, …).
type Event struct {
	Seq    uint64   `json:"seq"`
	At     sim.Time `json:"at"`
	Kind   Kind     `json:"kind"`
	Job    string   `json:"job,omitempty"`
	Task   string   `json:"task,omitempty"`
	Device string   `json:"device,omitempty"`
	Value  float64  `json:"value,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// String renders the event as one stable log line — the unit of the
// byte-identical determinism witness over serialized sessions.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6d %12.6fs %-18s", e.Seq, sim.ToSeconds(e.At), e.Kind)
	if e.Job != "" {
		fmt.Fprintf(&sb, " job=%s", e.Job)
	}
	if e.Task != "" {
		fmt.Fprintf(&sb, " task=%s", e.Task)
	}
	if e.Device != "" {
		fmt.Fprintf(&sb, " dev=%s", e.Device)
	}
	if e.Value != 0 {
		fmt.Fprintf(&sb, " v=%g", e.Value)
	}
	if e.Detail != "" {
		fmt.Fprintf(&sb, " (%s)", e.Detail)
	}
	return sb.String()
}

// FormatLog renders events one per line, in slice order.
func FormatLog(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DefaultBuffer is the subscription channel depth used when the caller
// does not choose one.
const DefaultBuffer = 1024

// Bus fans runtime events out to observers and subscriptions. The zero
// of observability is free by construction: Publish on a nil bus, or on
// a bus with no observer and no subscription, returns after a single
// atomic load — no lock, no allocation. Bus is safe for concurrent use.
type Bus struct {
	active atomic.Int32 // observers + open subscriptions

	mu        sync.Mutex
	seq       uint64
	observers []func(Event)
	subs      []*Subscription
}

// NewBus creates an empty bus.
func NewBus() *Bus { return &Bus{} }

// Active reports whether anyone is listening. Publishers may use it to
// skip building expensive Detail strings for events nobody will see.
func (b *Bus) Active() bool { return b != nil && b.active.Load() > 0 }

// Observe registers a synchronous observer. Observers run under the bus
// lock in global sequence order, so they see exactly the stream a
// serialized session would log; they must be fast, must not block, and
// must not call back into the bus. Observers cannot be unregistered —
// they live as long as the session.
func (b *Bus) Observe(fn func(Event)) {
	if fn == nil {
		return
	}
	b.mu.Lock()
	b.observers = append(b.observers, fn)
	b.mu.Unlock()
	b.active.Add(1)
}

// Subscribe opens a bounded buffered subscription (buf <= 0 selects
// DefaultBuffer). Events that find the buffer full are dropped and
// counted — a slow consumer can never stall the dispatch loop.
func (b *Bus) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = DefaultBuffer
	}
	s := &Subscription{bus: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	b.active.Add(1)
	return s
}

// Publish stamps the event with the next sequence number and delivers
// it. With no listener this is the disabled fast path: one atomic load.
func (b *Bus) Publish(e Event) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	for _, s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
		}
	}
	for _, fn := range b.observers {
		fn(e)
	}
	b.mu.Unlock()
}

// Subscription is one bounded event feed off a bus.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// Events returns the receive side of the subscription. The channel is
// closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were discarded because the buffer was
// full when they arrived.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel; double-close
// is a no-op.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, sub := range s.bus.subs {
		if sub == s {
			s.bus.subs = append(s.bus.subs[:i], s.bus.subs[i+1:]...)
			break
		}
	}
	s.bus.active.Add(-1)
	close(s.ch)
}

// Collector is a synchronous observer that accumulates the ordered
// event stream in memory — the shape the determinism witness and the
// session exporter consume. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Observe appends one event; pass it to Bus.Observe.
func (c *Collector) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected stream in publication order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len reports how many events have been collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Log renders the collected stream via FormatLog.
func (c *Collector) Log() string { return FormatLog(c.Events()) }
