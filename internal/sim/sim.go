// Package sim implements the discrete-event simulation kernel used by the
// LEGaTO reproduction. Hardware-gated experiments (GPU checkpoint streaming,
// cluster scheduling, the Smart Mirror pipeline) run against a virtual clock
// so results are deterministic and independent of host load.
//
// The kernel is a classic event-heap design: events carry a firing time and
// a sequence number (FIFO among equal times), and an Engine drains the heap,
// advancing virtual time monotonically.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, measured from the engine epoch.
type Time = time.Duration

// Event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; model processes are expressed as chains of callbacks.
// In the multi-job engine every job owns exactly one Engine — its private
// virtual clock — and the owning worker goroutine is the only one that may
// touch it; cross-job coordination happens in wall-clock time through the
// admission ledger, never by sharing a clock.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	procs  int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	ev *event
}

// Cancel removes the event from the schedule; cancelling an already-fired
// or already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.dead = true
	}
}

// Schedule queues fn to run after delay of virtual time. A negative delay
// panics: virtual time is monotone.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.seq++
	ev := &event{at: e.now + delay, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return Handle{ev: ev}
}

// ScheduleAt queues fn at an absolute virtual time, which must not be in
// the past.
func (e *Engine) ScheduleAt(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	return e.Schedule(at-e.now, fn)
}

// Step executes the next event, returning false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.dead {
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run drains the event queue completely and returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
