// Package power implements the fleet ledger and power management of the
// LEGaTO reproduction — the low-*energy* pillar next to the resilience
// layer (internal/faults) and the concurrent engine (internal/engine).
// Three pieces:
//
//   - DVFS ladders (LadderFor): every device's supported operating points
//     (frequency/voltage → speed factor, dynamic-power factor), plus
//     task-level undervolt points below the vendor guardband whose silent-
//     data-corruption probability feeds the internal/faults SDC model —
//     the Sec. III trade the paper builds FPGA undervolting on.
//   - the fleet Ledger: the one object that decides whether a device can
//     still take a placement. It holds each device's cores, draw and
//     liveness under one lock. A placement claims its cores and its
//     dynamic draw in one step; the cores must be free, and the draw must
//     fit under the fleet's watt cap on top of the static (idle) draw of
//     every healthy device. A refused job parks on one generation channel.
//     Peak(id) ≤ Capacity(id) and PeakDraw ≤ Cap are the witnesses.
//   - a Governor policy: RaceToIdle keeps every device at nominal
//     frequency and lets jobs park under cap pressure (finish fast, idle
//     long); PackAndThrottle steps devices down their DVFS ladders when
//     draws are refused, packing more concurrent work under the cap at
//     lower per-task power, and steps them back toward nominal when the
//     draw relaxes or a device loss frees headroom.
//
// Layering: power knows the hardware catalogue (hw) and the energy units
// but not the engine or the task runtime. The engine owns one Ledger per
// session, taskrt claims from it through the taskrt.Admission interface,
// and the fault injector fails and degrades devices on it.
package power

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"legato/internal/energy"
	"legato/internal/hw"
)

// Kind selects the governor policy reshaping device frequencies under cap
// pressure.
type Kind int

const (
	// RaceToIdle keeps devices at nominal frequency; under cap pressure
	// jobs park until siblings release draw (run fast, idle long).
	RaceToIdle Kind = iota
	// PackAndThrottle steps devices down their DVFS ladder when a draw is
	// refused, fitting more concurrent tasks under the cap at lower
	// per-task power, and steps back up when the draw relaxes.
	PackAndThrottle
)

// String names the governor kind.
func (k Kind) String() string {
	switch k {
	case RaceToIdle:
		return "race-to-idle"
	case PackAndThrottle:
		return "pack-and-throttle"
	default:
		return fmt.Sprintf("governor(%d)", int(k))
	}
}

// Point is one operating point of a device's DVFS ladder, pre-resolved to
// scaling factors relative to the nominal state.
type Point struct {
	// State is the index into the device Spec.States this point selects.
	State int
	Name  string
	// FreqGHz and Voltage echo the underlying DVFS state.
	FreqGHz, Voltage float64
	// SpeedScale is execution speed relative to nominal (f/f0).
	SpeedScale float64
	// PowerScale is dynamic power relative to nominal (f·V² scaling).
	PowerScale float64
}

// Ladder is one device's ordered DVFS operating points, nominal (fastest)
// first — the shape the governor walks under cap pressure.
type Ladder struct {
	Device string
	Points []Point
}

// LadderFor resolves a device's DVFS states into a ladder of operating
// points. A spec without explicit states yields a single nominal point.
func LadderFor(id string, spec hw.Spec) Ladder {
	states := spec.States
	if len(states) == 0 {
		states = []hw.DVFSState{{Name: "nominal", FreqGHz: 1, Voltage: 1}}
	}
	nom := states[0]
	l := Ladder{Device: id, Points: make([]Point, 0, len(states))}
	for i, st := range states {
		speed, pscale := 1.0, 1.0
		if nom.FreqGHz > 0 && nom.Voltage > 0 {
			speed = st.FreqGHz / nom.FreqGHz
			v := st.Voltage / nom.Voltage
			pscale = speed * v * v
		}
		l.Points = append(l.Points, Point{
			State: i, Name: st.Name,
			FreqGHz: st.FreqGHz, Voltage: st.Voltage,
			SpeedScale: speed, PowerScale: pscale,
		})
	}
	return l
}

// MaxUndervolt is the deepest supported per-task undervolt level.
const MaxUndervolt = 3

// undervoltStepV is the fraction of nominal voltage shaved per level.
const undervoltStepV = 0.05

// UndervoltVoltageScale returns the supply-voltage factor of an undervolt
// level: each level shaves 5% below the operating point's voltage (the
// Sec. III sub-guardband region). Levels are clamped to [0, MaxUndervolt].
func UndervoltVoltageScale(level int) float64 {
	if level <= 0 {
		return 1
	}
	if level > MaxUndervolt {
		level = MaxUndervolt
	}
	return 1 - undervoltStepV*float64(level)
}

// UndervoltPowerScale returns the dynamic-power factor of an undervolt
// level: quadratic in voltage at unchanged frequency (paper Sec. III).
func UndervoltPowerScale(level int) float64 {
	v := UndervoltVoltageScale(level)
	return v * v
}

// SDCProbability returns the per-execution silent-data-corruption
// probability an undervolt level adds on top of the device class's base
// rate: zero inside the guardband, growing ~exponentially below it — the
// Fig. 5 fault-density curve collapsed to three steps.
func SDCProbability(level int) float64 {
	if level <= 0 {
		return 0
	}
	if level > MaxUndervolt {
		level = MaxUndervolt
	}
	return 2e-4 * math.Pow(4, float64(level-1))
}

// Verdict is the outcome of a Claim: granted, or the budget that refused.
type Verdict int

const (
	// Granted means both the cores and the watts were claimed.
	Granted Verdict = iota
	// NoCores means the device lacks the free cores (sibling grants, a
	// shrink or a loss) or is unknown; nothing was claimed.
	NoCores
	// NoWatts means the cores fit but the draw would breach the cap, or
	// the device is lost; nothing was claimed.
	NoWatts
)

// Ledger is the shared fleet ledger: the one object that decides whether a
// device can still take a placement. Per device it holds the core capacity
// and free cores, the static and granted dynamic draw, the DVFS operating
// point the governor prescribes, and liveness. Across the fleet it holds
// one watt budget covering the static (idle) draw of every healthy device
// plus the dynamic draw of every admitted task.
//
// Jobs running concurrently on private virtual clocks claim cores and
// watts from it in one step (Claim), so the union of their placements
// never oversubscribes a device or breaches the cap. A refused job parks
// on one generation channel (Changed), closed by every release, fleet
// event and governor reshape. Peak(id) ≤ Capacity(id) and PeakDraw ≤ Cap
// are the two witnesses. Safe for concurrent use.
//
// Every write happens under one mutex. The reads a job makes on every
// event are lock-free: Changed, Draw and Epoch load atomics that the
// writers publish inside the same critical section as the change they
// describe, so a job calls Shape, which takes the lock, only when Epoch
// moved.
type Ledger struct {
	mu   sync.Mutex
	capW energy.Watts // fixed at construction, read without the lock
	gov  Kind

	fleet []*account          // fleet order: Devices and the governor's tie-break
	byID  map[string]*account // the same accounts, keyed by device ID

	idleTotal  energy.Watts // static draw of the surviving fleet
	dynDraw    energy.Watts // granted dynamic draw, fleet-wide
	peakW      energy.Watts
	coreStalls uint64 // claims and reacquires refused for cores
	wattStalls uint64 // claims refused for watts
	rescales   uint64

	gen   atomic.Value  // chan struct{}, closed and replaced on every release, fleet event or reshape
	epoch atomic.Uint64 // shape epoch: bumped on every capacity or operating-point change
	draw  atomic.Uint64 // float64 bits of idleTotal + dynDraw
}

// account is one device's entry in the ledger.
type account struct {
	id    string
	cores int  // current capacity (zero once lost)
	free  int  // free cores; negative after a shrink under grants (a deficit)
	peak  int  // high-water mark of in-use cores, clamped to capacity
	lost  bool // failed mid-session

	idleW energy.Watts // static draw
	drawW energy.Watts // granted dynamic draw
	drawn bool         // a claim was ever granted here: the governor throttles only such devices

	ladder Ladder
	point  int // governor-prescribed state index
}

// NewLedger builds a ledger over the reference devices with the given cap
// (watts; zero or negative means uncapped) and governor. Each device starts
// with its full core count free, and its static draw is charged from the
// start: idle silicon is not free, which is the accounting gap the watt
// budget closes.
func NewLedger(capW energy.Watts, devices []*hw.Device, gov Kind) *Ledger {
	l := &Ledger{
		capW:  capW,
		gov:   gov,
		byID:  make(map[string]*account, len(devices)),
		fleet: make([]*account, 0, len(devices)),
	}
	l.gen.Store(make(chan struct{}))
	if capW <= 0 {
		l.capW = math.Inf(1)
	}
	for _, d := range devices {
		a := &account{
			id: d.ID, cores: d.Spec.Cores, free: d.Spec.Cores,
			idleW: d.Spec.IdleWatts, ladder: LadderFor(d.ID, d.Spec),
		}
		l.fleet = append(l.fleet, a)
		l.byID[d.ID] = a
		l.idleTotal += d.Spec.IdleWatts
	}
	l.peakW = l.idleTotal
	l.publishDrawLocked()
	return l
}

// FleetPeakWatts sums the nominal full-utilisation draw of the devices —
// the reference a relative cap (e.g. "60% of fleet peak") is set against.
func FleetPeakWatts(devices []*hw.Device) energy.Watts {
	total := energy.Watts(0)
	for _, d := range devices {
		total += d.Spec.PeakWatts
	}
	return total
}

// Claim grants cores and watts of dynamic draw on a device in one step, or
// neither. Cores are judged first: a device without the free cores, or an
// unknown one, refuses and counts a core stall. Then the watts: any draw on
// a lost device, or a draw that would push the fleet over the cap, is
// refused and counts a watt stall. An over-cap refusal under
// PackAndThrottle steps the device down its DVFS ladder (at the ladder
// floor, the hungriest throttleable sibling), so the parked job re-scores
// at a cheaper point, and wakes parked jobs. A claim of zero cores claims
// watts alone. Only a grant raises the core and draw peaks.
func (l *Ledger) Claim(deviceID string, cores int, watts energy.Watts) Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byID[deviceID]
	if a == nil || a.free < cores {
		l.coreStalls++
		return NoCores
	}
	if a.lost {
		l.wattStalls++
		return NoWatts
	}
	if l.idleTotal+l.dynDraw+watts > l.capW {
		l.wattStalls++
		if l.gov == PackAndThrottle {
			l.throttleLocked(a)
		}
		// Wake parked jobs even without a reshape: a sibling release may
		// have raced with this refusal.
		l.wakeLocked()
		return NoWatts
	}
	a.free -= cores
	a.peak = max(a.peak, a.cores-a.free)
	a.drawW += watts
	a.drawn = true
	l.dynDraw += watts
	l.peakW = max(l.peakW, l.idleTotal+l.dynDraw)
	l.publishDrawLocked()
	return Granted
}

// Release returns a grant's cores and watts and wakes every parked job.
// Watts returned on a lost device are dropped: Fail already released its
// draw, and late revocations from jobs crossing the crash on their private
// clocks must not release it twice. Under PackAndThrottle a watt release
// that relaxes the draw steps the most-throttled device back toward
// nominal. Returning more cores than the device has granted panics.
func (l *Ledger) Release(deviceID string, cores int, watts energy.Watts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byID[deviceID]
	if a == nil || a.free+cores > a.cores {
		panic(fmt.Sprintf("power: over-release of %d cores on %s", cores, deviceID))
	}
	a.free += cores
	if watts > 0 {
		if !a.lost {
			w := min(watts, a.drawW)
			a.drawW -= w
			l.dynDraw -= w
			l.publishDrawLocked()
		}
		if l.gov == PackAndThrottle {
			l.unthrottleLocked()
		}
	}
	l.wakeLocked()
}

// Reacquire claims every core grant in one step, or none of them: a job
// resuming from suspension takes back the grants it returned while parked
// plus its stalled placement. A grant larger than its device's current
// capacity (the device shrank or failed while the job was parked) waits
// until no sibling holds that device, then is claimed as a deficit: the
// same one SetCapacity would have left had the job kept its grants, and
// clamped into the peak the same way.
func (l *Ledger) Reacquire(grants map[string]int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range grants {
		if a := l.byID[id]; a == nil || a.free < min(n, a.cores) {
			l.coreStalls++
			return false
		}
	}
	for id, n := range grants {
		a := l.byID[id]
		a.free -= n
		a.peak = max(a.peak, min(a.cores-a.free, a.cores))
	}
	return true
}

// Changed returns a channel closed on the next release, fleet event or
// governor reshape after this call. A job grabs it before claiming, so a
// release racing with a refusal can never be missed: the swap to a fresh
// channel happens inside the releasing critical section, so a job that
// loaded the fresh one takes the lock for its Claim after that release and
// sees it. Lock-free.
func (l *Ledger) Changed() <-chan struct{} {
	return l.gen.Load().(chan struct{})
}

// SetCapacity rescales a healthy device's capacity mid-session (a degrade
// event, e.g. thermal throttling or partial failure). Grants already out
// may exceed the new capacity; the free count then goes negative (a
// deficit) and later releases pay it down before new claims succeed. The
// core peak is clamped to the new capacity, so Peak(id) ≤ Capacity(id)
// reads against the current capacity. Parked jobs are woken to re-evaluate
// placement. Unknown and lost devices are ignored.
func (l *Ledger) SetCapacity(deviceID string, cores int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byID[deviceID]
	if a == nil || a.lost {
		return
	}
	l.setCapacityLocked(a, max(cores, 0))
	l.wakeLocked()
}

func (l *Ledger) setCapacityLocked(a *account, cores int) {
	a.free -= a.cores - cores
	a.cores = cores
	a.peak = min(a.peak, cores)
	l.epoch.Add(1)
}

// Fail removes a device from the fleet in one step: its capacity drops to
// zero (outstanding grants become a deficit that revocations pay back),
// its static draw stops being charged and every dynamic grant on it is
// released. Parked jobs are woken so the loss is never missed, and under
// PackAndThrottle the freed headroom may step throttled survivors back up.
// Fail reports whether this call removed the device: false for an unknown
// or already lost one.
func (l *Ledger) Fail(deviceID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byID[deviceID]
	if a == nil || a.lost {
		return false
	}
	a.lost = true
	l.setCapacityLocked(a, 0)
	l.idleTotal -= a.idleW
	l.dynDraw -= a.drawW
	a.drawW = 0
	l.publishDrawLocked()
	if l.gov == PackAndThrottle {
		l.unthrottleLocked()
	}
	l.wakeLocked()
	return true
}

// Lost reports whether the device was failed mid-session.
func (l *Ledger) Lost(deviceID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byID[deviceID]
	return a != nil && a.lost
}

// Devices returns the IDs of every device the ledger tracks, lost ones
// included, in fleet (construction) order.
func (l *Ledger) Devices() []string {
	ids := make([]string, len(l.fleet))
	for i, a := range l.fleet {
		ids[i] = a.id
	}
	return ids
}

// Epoch returns the shape epoch: a counter that moves whenever a device's
// capacity or prescribed operating point changes, and only then. Values
// read by Shape stay current until it moves. Lock-free.
func (l *Ledger) Epoch() uint64 { return l.epoch.Load() }

// Shape fills cores[i] and points[i] with the current capacity and
// prescribed operating point of devs[i] (zero for a device the ledger does
// not track), in one step, and returns the epoch they belong to. Both
// slices must be at least as long as devs.
func (l *Ledger) Shape(devs []*hw.Device, cores, points []int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, d := range devs {
		cores[i], points[i] = 0, 0
		if a := l.byID[d.ID]; a != nil {
			cores[i], points[i] = a.cores, a.point
		}
	}
	return l.epoch.Load()
}

// Capacity returns a device's current total cores (zero if unknown or
// lost).
func (l *Ledger) Capacity(deviceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil {
		return a.cores
	}
	return 0
}

// InUse returns a device's currently granted cores.
func (l *Ledger) InUse(deviceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil {
		return a.cores - a.free
	}
	return 0
}

// Peak returns the high-water mark of granted cores on a device — the
// oversubscription witness: it never exceeds Capacity.
func (l *Ledger) Peak(deviceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil {
		return a.peak
	}
	return 0
}

// CoreStalls counts claims and reacquires refused for cores (the
// contention signal).
func (l *Ledger) CoreStalls() uint64 { return l.Read(nil).CoreStalls }

// WattStalls counts claims refused for watts (the cap-pressure signal).
func (l *Ledger) WattStalls() uint64 { return l.Read(nil).WattStalls }

// Cap returns the watt budget (+Inf when uncapped).
func (l *Ledger) Cap() energy.Watts { return l.capW }

// Capped reports whether a finite cap is armed.
func (l *Ledger) Capped() bool { return !math.IsInf(l.capW, 1) }

// Governor returns the governor kind.
func (l *Ledger) Governor() Kind { return l.gov }

// Draw returns the current modelled fleet draw: static power of healthy
// devices plus every granted dynamic watt. Lock-free.
func (l *Ledger) Draw() energy.Watts {
	return math.Float64frombits(l.draw.Load())
}

// IdleWatts returns the static draw of the surviving fleet.
func (l *Ledger) IdleWatts() energy.Watts { return l.Read(nil).IdleWatts }

// DrawOf returns a device's current draw (static + granted dynamic); zero
// for a lost or unknown device.
func (l *Ledger) DrawOf(deviceID string) energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil && !a.lost {
		return a.idleW + a.drawW
	}
	return 0
}

// PeakDraw returns the high-water mark of the fleet draw — the peak-draw
// witness: it never exceeds Cap.
func (l *Ledger) PeakDraw() energy.Watts { return l.Read(nil).PeakDraw }

// Rescales counts governor operating-point changes.
func (l *Ledger) Rescales() uint64 { return l.Read(nil).Rescales }

// OperatingPoint returns the DVFS state index the governor currently
// prescribes for a device (0 = nominal, also for unknown devices).
func (l *Ledger) OperatingPoint(deviceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil {
		return a.point
	}
	return 0
}

// Ladder returns a device's resolved DVFS ladder.
func (l *Ledger) Ladder(deviceID string) Ladder {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byID[deviceID]; a != nil {
		return a.ladder
	}
	return Ladder{}
}

// Reading is one consistent view of the ledger's fleet-wide meters.
type Reading struct {
	Draw, PeakDraw, IdleWatts        energy.Watts
	CoreStalls, WattStalls, Rescales uint64
}

// Read returns the fleet-wide meters under one lock acquisition. A non-nil
// draws receives each device's DrawOf in fleet (construction) order; it
// must be at least as long as the fleet.
func (l *Ledger) Read(draws []energy.Watts) Reading {
	l.mu.Lock()
	defer l.mu.Unlock()
	if draws != nil {
		for i, a := range l.fleet {
			draws[i] = 0
			if !a.lost {
				draws[i] = a.idleW + a.drawW
			}
		}
	}
	return Reading{
		Draw: l.idleTotal + l.dynDraw, PeakDraw: l.peakW, IdleWatts: l.idleTotal,
		CoreStalls: l.coreStalls, WattStalls: l.wattStalls, Rescales: l.rescales,
	}
}

// wakeLocked closes and replaces the generation channel. A chan is
// pointer-shaped, so storing it in the atomic.Value allocates nothing.
func (l *Ledger) wakeLocked() {
	close(l.gen.Load().(chan struct{}))
	l.gen.Store(make(chan struct{}))
}

// publishDrawLocked mirrors the fleet draw for lock-free Draw readers.
func (l *Ledger) publishDrawLocked() {
	l.draw.Store(math.Float64bits(l.idleTotal + l.dynDraw))
}

// throttleLocked steps a device one rung down its DVFS ladder; if the
// device is already at the floor, the healthy device with the largest
// dynamic draw that still has a lower rung is stepped instead.
func (l *Ledger) throttleLocked(a *account) {
	if l.stepDownLocked(a) {
		return
	}
	var best *account
	bestDraw := energy.Watts(-1)
	for _, s := range l.fleet {
		if !s.drawn || s == a || s.lost {
			continue
		}
		if s.point < len(s.ladder.Points)-1 && s.drawW > bestDraw {
			best, bestDraw = s, s.drawW
		}
	}
	if best != nil {
		l.stepDownLocked(best)
	}
}

// stepDownLocked lowers one device's operating point if a rung exists.
func (l *Ledger) stepDownLocked(a *account) bool {
	if a.lost || a.point >= len(a.ladder.Points)-1 {
		return false
	}
	a.point++
	l.rescales++
	l.epoch.Add(1)
	return true
}

// unthrottleLocked steps the most-throttled healthy device one rung back
// toward nominal once the draw has relaxed below 70% of the cap —
// hysteresis so the ladder does not flap on every release.
func (l *Ledger) unthrottleLocked() {
	if l.idleTotal+l.dynDraw > 0.7*l.capW {
		return
	}
	var best *account
	for _, a := range l.fleet {
		if !a.lost && a.point > 0 && (best == nil || a.point > best.point) {
			best = a
		}
	}
	if best != nil {
		best.point--
		l.rescales++
		l.epoch.Add(1)
	}
}
