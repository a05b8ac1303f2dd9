package engine

import (
	"fmt"
	"sync"

	"legato/internal/hw"
	"legato/internal/power"
)

// Fleet is the shared per-device admission ledger: the one source of truth
// for how many cores of each physical device are occupied across all
// concurrently executing jobs. Each job schedules against its own platform
// mirror (same device IDs, private virtual clock); the ledger is what
// keeps the union of their placements feasible on the real fleet — a
// TryAcquire that would oversubscribe a device fails, and the job parks
// until a sibling releases capacity.
//
// Fleet implements taskrt.Admission and is safe for concurrent use.
type Fleet struct {
	mu     sync.Mutex
	cap    map[string]int
	free   map[string]int
	peak   map[string]int  // high-water mark of in-use cores, per device
	lost   map[string]bool // devices failed mid-session
	gen    chan struct{}   // closed and replaced on every Release
	stalls uint64          // failed admission attempts (contention signal)
	power  *power.Ledger   // coupled watt ledger (optional)
}

// NewFleet builds a ledger from the reference devices; capacity is each
// device's core count.
func NewFleet(devices []*hw.Device) *Fleet {
	f := &Fleet{
		cap:  make(map[string]int, len(devices)),
		free: make(map[string]int, len(devices)),
		peak: make(map[string]int, len(devices)),
		lost: make(map[string]bool),
		gen:  make(chan struct{}),
	}
	for _, d := range devices {
		f.cap[d.ID] = d.Spec.Cores
		f.free[d.ID] = d.Spec.Cores
	}
	return f
}

// AttachPower couples the watt ledger to the core ledger: fleet events
// (Fail) are forwarded so the power ledger stops charging a lost device's
// static draw and releases its outstanding dynamic grants the moment the
// core ledger zeroes its capacity.
func (f *Fleet) AttachPower(l *power.Ledger) {
	f.mu.Lock()
	f.power = l
	f.mu.Unlock()
}

// TryAcquire claims cores on a device; it fails (without blocking) when
// the remaining capacity is insufficient or the device is unknown.
func (f *Fleet) TryAcquire(deviceID string, cores int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	free, ok := f.free[deviceID]
	if !ok || free < cores {
		f.stalls++
		return false
	}
	f.free[deviceID] = free - cores
	if used := f.cap[deviceID] - f.free[deviceID]; used > f.peak[deviceID] {
		f.peak[deviceID] = used
	}
	return true
}

// Reacquire claims every grant in one step, or none of them: a job
// resuming from suspension takes back the grants it returned while parked
// plus its stalled placement. A grant larger than its device's current
// capacity (the device shrank or failed while the job was parked) waits
// until no sibling holds that device, then is claimed as a deficit: the
// same one SetCapacity would have left had the job kept its grants, and
// clamped into the peak the same way.
func (f *Fleet) Reacquire(grants map[string]int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, n := range grants {
		if f.free[id] < min(n, f.cap[id]) {
			f.stalls++
			return false
		}
	}
	for id, n := range grants {
		f.free[id] -= n
		f.peak[id] = max(f.peak[id], min(f.cap[id]-f.free[id], f.cap[id]))
	}
	return true
}

// Release returns cores to a device and wakes every parked job.
func (f *Fleet) Release(deviceID string, cores int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free[deviceID] += cores
	if f.free[deviceID] > f.cap[deviceID] {
		panic(fmt.Sprintf("engine: fleet over-release on %s (%d free of %d)",
			deviceID, f.free[deviceID], f.cap[deviceID]))
	}
	close(f.gen)
	f.gen = make(chan struct{})
}

// Changed returns a channel closed on the next Release after this call.
func (f *Fleet) Changed() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// SetCapacity rescales a device's capacity mid-session (a degrade event —
// e.g. thermal throttling or partial failure). Grants already out may
// exceed the new capacity; the free count then goes negative (a deficit)
// and subsequent Releases pay it down before new admissions succeed. The
// peak high-water mark is clamped to the new capacity, so the invariant
// Peak(id) ≤ Capacity(id) reads against the *current* capacity. Every
// parked job is woken so it can re-evaluate placement. Unknown devices are
// ignored.
func (f *Fleet) SetCapacity(deviceID string, cores int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, ok := f.cap[deviceID]
	if !ok {
		return
	}
	if cores < 0 {
		cores = 0
	}
	used := old - f.free[deviceID]
	f.cap[deviceID] = cores
	f.free[deviceID] = cores - used
	if f.peak[deviceID] > cores {
		f.peak[deviceID] = cores
	}
	close(f.gen)
	f.gen = make(chan struct{})
}

// Fail removes a device from the fleet entirely: capacity drops to zero
// (outstanding grants become a deficit that revocations pay back) and the
// device is marked lost. Jobs parked on admission are woken so the loss is
// never missed, and new jobs that still fit the surviving fleet keep being
// admitted — graceful degradation, not session abort.
func (f *Fleet) Fail(deviceID string) {
	f.mu.Lock()
	alreadyLost := f.lost[deviceID]
	f.lost[deviceID] = true
	pw := f.power
	f.mu.Unlock()
	if alreadyLost {
		return
	}
	f.SetCapacity(deviceID, 0)
	if pw != nil {
		pw.DeviceLost(deviceID)
	}
}

// Lost reports whether a device was failed mid-session.
func (f *Fleet) Lost(deviceID string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lost[deviceID]
}

// Devices returns the IDs of every device the ledger tracks, including
// lost ones.
func (f *Fleet) Devices() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.cap))
	for id := range f.cap {
		ids = append(ids, id)
	}
	return ids
}

// Capacity returns a device's total cores (zero if unknown).
func (f *Fleet) Capacity(deviceID string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cap[deviceID]
}

// InUse returns a device's currently occupied cores.
func (f *Fleet) InUse(deviceID string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cap[deviceID] - f.free[deviceID]
}

// Peak returns the high-water mark of occupied cores on a device — the
// oversubscription witness: it can never exceed Capacity.
func (f *Fleet) Peak(deviceID string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peak[deviceID]
}

// Stalls counts failed admission attempts across all devices.
func (f *Fleet) Stalls() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalls
}
