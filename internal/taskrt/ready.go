package taskrt

import "math/bits"

// The ready queue and the dispatch loop over it.
//
// Dispatch visits ready tasks in ready order — priority descending, then
// submission order — and places each on its best-scoring device. On a
// saturated platform most ready tasks fit no device at all, so the queue
// is split by task shape (width and target classes): a shape for which no
// healthy device of a target class has the cores free is skipped whole,
// and dispatch walks only the tasks it might place. Each shape's tasks form
// a binary heap in ready order; a node knows its lane and heap slot, so
// membership is a flag and removal is O(log n).

// classSet is a set of device classes, one bit per class.
type classSet uint8

// anyClass is the class set of a task with no Targets. A task targeting a
// class too large for classSet gets it too: the shape then over-approximates
// the devices the task fits, and place rejects the rest per device.
const anyClass = ^classSet(0)

// classSlots is the number of classes a classSet can hold.
const classSlots = 8

// shape is what decides whether a ready task fits a device: its width and
// the classes it accepts.
type shape struct {
	cores   int
	classes classSet
}

func shapeOf(t *Task) shape {
	s := shape{cores: t.Cores}
	if len(t.Targets) == 0 {
		s.classes = anyClass
		return s
	}
	for _, c := range t.Targets {
		if c < 0 || c >= classSlots {
			s.classes = anyClass
			return s
		}
		s.classes |= 1 << uint(c)
	}
	return s
}

// lane holds the ready tasks of one shape as a binary heap in ready order.
// Entries carry their sort key, so comparisons never load the nodes.
type lane struct {
	shape
	heap []entry
}

type entry struct {
	prio, id int
	n        *node
}

// readyBefore is the ready order: higher priority first, then submission
// order. Node IDs are unique, so the order is total.
func readyBefore(a, b *entry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

func (l *lane) push(n *node) {
	n.slot = int32(len(l.heap))
	l.heap = append(l.heap, entry{n.task.Priority, n.id, n})
	l.up(int(n.slot))
}

// pop removes and returns the lane's first task in ready order.
func (l *lane) pop() *node {
	n := l.heap[0].n
	l.remove(0)
	return n
}

// remove deletes the node at heap slot i.
func (l *lane) remove(i int) {
	last := len(l.heap) - 1
	n := l.heap[i].n
	if i != last {
		l.swap(i, last)
	}
	l.heap[last] = entry{}
	l.heap = l.heap[:last]
	if i != last && !l.down(i) {
		l.up(i)
	}
	n.slot = -1
}

func (l *lane) swap(i, j int) {
	l.heap[i], l.heap[j] = l.heap[j], l.heap[i]
	l.heap[i].n.slot, l.heap[j].n.slot = int32(i), int32(j)
}

func (l *lane) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !readyBefore(&l.heap[i], &l.heap[p]) {
			return
		}
		l.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (l *lane) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(l.heap) {
			break
		}
		if r := c + 1; r < len(l.heap) && readyBefore(&l.heap[r], &l.heap[c]) {
			c = r
		}
		if !readyBefore(&l.heap[c], &l.heap[i]) {
			break
		}
		l.swap(i, c)
		i = c
	}
	return i > start
}

// enqueue adds a ready node to the queue; a queued node stays where it is.
func (r *Runtime) enqueue(n *node) {
	if n.queued {
		return
	}
	if n.lane == nil {
		n.lane = r.laneFor(shapeOf(&n.task))
	}
	n.queued = true
	n.lane.push(n)
	r.nready++
}

// laneFor returns the lane of a shape, opening it on first use. Graphs have
// a handful of shapes, so a scan beats a map.
func (r *Runtime) laneFor(s shape) *lane {
	for _, l := range r.lanes {
		if l.shape == s {
			return l
		}
	}
	l := &lane{shape: s}
	r.lanes = append(r.lanes, l)
	return l
}

// unready removes a node from the ready queue if it is queued.
func (r *Runtime) unready(n *node) {
	if !n.queued {
		return
	}
	n.lane.remove(int(n.slot))
	n.queued = false
	r.nready--
}

// outcome is the result of one placement attempt.
type outcome int

const (
	// skipped: no device fits the task now, or a ledger refused it; it
	// is attempted again after the next placement of the same call.
	skipped outcome = iota
	// stalled: only sibling jobs' grants stand in the way; the round ends.
	stalled
	// placed: the task started.
	placed
)

// dispatch assigns as many ready tasks as possible. It behaves as a scan of
// the queue in ready order that starts over from the head after every
// placement: a placement can change which device a refused task scores
// best on, and the watt ledger and governor act on every attempt. Within a
// call, free cores only shrink and fleet capacity is read once, so a task
// that fits no device is skipped by the rescan too. What a rescan visits
// is then the tasks it set aside so far, in ready order, followed by the
// queue past the last task visited — which is what dispatch walks. Set-
// aside tasks return to their lanes when the call ends.
func (r *Runtime) dispatch() {
	r.applyOperatingPoints()
	if r.nready == 0 {
		return
	}
	r.refreshShape()
	r.measureFree()
	defer r.restock()
	for {
		switch r.retryAside() {
		case stalled:
			return
		case placed:
			r.measureFree()
			continue
		}
		if r.visitQueue() != placed {
			return
		}
		r.measureFree()
	}
}

// retryAside re-attempts, in ready order, the tasks set aside earlier in
// this call; it stops at the first placement or stall.
func (r *Runtime) retryAside() outcome {
	for i, n := range r.aside {
		switch r.place(n) {
		case stalled:
			return stalled
		case placed:
			r.aside = append(r.aside[:i], r.aside[i+1:]...)
			return placed
		}
	}
	return skipped
}

// visitQueue pops ready tasks in ready order from the shapes that fit
// somewhere, setting each aside until one is placed or none is left.
func (r *Runtime) visitQueue() outcome {
	for {
		n := r.nextFit()
		if n == nil {
			return skipped
		}
		o := r.place(n)
		if o == placed {
			return placed
		}
		r.aside = append(r.aside, n)
		if o == stalled {
			return stalled
		}
	}
}

// nextFit pops the first task in ready order among the shapes some
// healthy device has the cores for; nil when there is none.
func (r *Runtime) nextFit() *node {
	var best *lane
	for _, l := range r.lanes {
		if len(l.heap) == 0 || !r.fits(l.shape) {
			continue
		}
		if best == nil || readyBefore(&l.heap[0], &best.heap[0]) {
			best = l
		}
	}
	if best == nil {
		return nil
	}
	return best.pop()
}

// restock returns the tasks this dispatch call set aside to their lanes.
func (r *Runtime) restock() {
	for _, n := range r.aside {
		n.lane.push(n)
	}
	clear(r.aside)
	r.aside = r.aside[:0]
}

// refreshShape re-reads fleet capacity and operating points when the
// ledger's shape epoch moved since the last read: one atomic load when it
// did not, which is every round of an uncapped, fault-free session. It is
// the one place the runtime reads the fleet's shape.
func (r *Runtime) refreshShape() {
	if e := r.adm.Epoch(); e != r.epoch {
		r.epoch = r.adm.Shape(r.devices, r.capacity, r.points)
	}
}

// measureFree records, per device class, the most cores one live device
// can still grant: not held by this run and within fleet capacity.
func (r *Runtime) measureFree() {
	r.free = [classSlots]int{}
	r.freeAny = 0
	for i, d := range r.devices {
		if r.state[i].lost {
			continue
		}
		f := min(d.Spec.Cores-r.state[i].cores, r.capacity[i])
		if c := d.Spec.Class; c >= 0 && c < classSlots {
			r.free[c] = max(r.free[c], f)
		}
		r.freeAny = max(r.freeAny, f)
	}
}

// fits reports whether some healthy device of a class the shape accepts
// has its width free, as of the last measureFree.
func (r *Runtime) fits(s shape) bool {
	if s.classes == anyClass {
		return r.freeAny >= s.cores
	}
	for m := uint(s.classes); m != 0; m &= m - 1 {
		if r.free[bits.TrailingZeros(m)] >= s.cores {
			return true
		}
	}
	return false
}
