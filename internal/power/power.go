// Package power implements the fleet-wide power-management subsystem of
// the LEGaTO reproduction — the third pillar (low-*energy*) next to the
// resilience layer (internal/faults) and the concurrent engine
// (internal/engine). Three pieces:
//
//   - DVFS ladders (LadderFor): every device's supported operating points
//     (frequency/voltage → speed factor, dynamic-power factor), plus
//     task-level undervolt points below the vendor guardband whose silent-
//     data-corruption probability feeds the internal/faults SDC model —
//     the Sec. III trade the paper builds FPGA undervolting on.
//   - a power-cap Ledger: the watt sibling of the engine's core-admission
//     ledger. The fleet has one watt budget; a placement is feasible only
//     if its dynamic draw fits under the cap on top of the static (idle)
//     draw of every healthy device. A TryDraw that would breach the cap
//     fails, and the job parks on a generation channel exactly like a
//     core-admission stall. PeakDraw ≤ Cap is the peak-draw witness, the
//     analogue of the core ledger's Peak(id) ≤ Capacity(id).
//   - a Governor policy: RaceToIdle keeps every device at nominal
//     frequency and lets jobs park under cap pressure (finish fast, idle
//     long); PackAndThrottle steps devices down their DVFS ladders when
//     draws are refused, packing more concurrent work under the cap at
//     lower per-task power, and steps them back toward nominal when the
//     draw relaxes or a device loss frees headroom.
//
// Layering: power knows the hardware catalogue (hw) and the energy units
// but not the engine or the task runtime; the engine owns one Ledger per
// session, taskrt consults it through the taskrt.PowerAdmission interface,
// and engine.Fleet forwards Fail/SetCapacity events so the watt ledger
// releases a lost device's draw the moment the core ledger zeroes its
// capacity.
package power

import (
	"fmt"
	"math"
	"sync"

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

// Ledger is the shared fleet power-cap ledger: one watt budget covering
// the static (idle) draw of every healthy device plus the dynamic draw of
// every admitted task, across all concurrently executing jobs. It is the
// sibling of the engine's core-admission ledger and is safe for concurrent
// use.
type Ledger struct {
	mu   sync.Mutex
	capW energy.Watts
	gov  Kind

	ids     []string // device IDs in fleet order: the governor's tie-break
	ladders map[string]Ladder
	point   map[string]int // governor-prescribed state index per device
	idleW   map[string]energy.Watts
	drawW   map[string]energy.Watts // granted dynamic draw per device
	lost    map[string]bool

	idleTotal energy.Watts
	dynDraw   energy.Watts
	peakW     energy.Watts
	stalls    uint64
	rescales  uint64
	gen       chan struct{} // closed and replaced on every release/reshape
}

// NewLedger builds a ledger over the reference devices with the given cap
// (watts; zero or negative means uncapped) and governor. The static draw
// of every device is charged from the start — idle silicon is not free,
// which is the accounting gap this subsystem closes.
func NewLedger(capW energy.Watts, devices []*hw.Device, gov Kind) *Ledger {
	l := &Ledger{
		capW:    capW,
		gov:     gov,
		ladders: make(map[string]Ladder, len(devices)),
		point:   make(map[string]int, len(devices)),
		idleW:   make(map[string]energy.Watts, len(devices)),
		drawW:   make(map[string]energy.Watts, len(devices)),
		lost:    make(map[string]bool),
		gen:     make(chan struct{}),
	}
	if capW <= 0 {
		l.capW = math.Inf(1)
	}
	for _, d := range devices {
		l.ids = append(l.ids, d.ID)
		l.ladders[d.ID] = LadderFor(d.ID, d.Spec)
		l.point[d.ID] = 0
		l.idleW[d.ID] = d.Spec.IdleWatts
		l.idleTotal += d.Spec.IdleWatts
	}
	l.peakW = l.idleTotal
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

// Cap returns the watt budget (+Inf when uncapped).
func (l *Ledger) Cap() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.capW
}

// Capped reports whether a finite cap is armed.
func (l *Ledger) Capped() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !math.IsInf(l.capW, 1)
}

// Governor returns the governor kind.
func (l *Ledger) Governor() Kind { return l.gov }

// Draw returns the current modelled fleet draw: static power of healthy
// devices plus every granted dynamic watt.
func (l *Ledger) Draw() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idleTotal + l.dynDraw
}

// IdleWatts returns the static draw of the surviving fleet.
func (l *Ledger) IdleWatts() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idleTotal
}

// DrawOf returns a device's current draw (static + granted dynamic); zero
// for a lost device.
func (l *Ledger) DrawOf(deviceID string) energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost[deviceID] {
		return 0
	}
	return l.idleW[deviceID] + l.drawW[deviceID]
}

// PeakDraw returns the high-water mark of the fleet draw — the peak-draw
// witness: it can never exceed Cap.
func (l *Ledger) PeakDraw() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peakW
}

// Stalls counts refused draws (cap-pressure signal).
func (l *Ledger) Stalls() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stalls
}

// Rescales counts governor operating-point changes.
func (l *Ledger) Rescales() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rescales
}

// OperatingPoint returns the DVFS state index the governor currently
// prescribes for a device (0 = nominal, also for unknown devices).
func (l *Ledger) OperatingPoint(deviceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.point[deviceID]
}

// Ladder returns a device's resolved DVFS ladder.
func (l *Ledger) Ladder(deviceID string) Ladder {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ladders[deviceID]
}

// TryDraw claims watts of dynamic draw for a task on a device; it fails
// (without blocking) when the grant would push the fleet draw over the
// cap or the device is lost. On a refusal the PackAndThrottle governor
// steps the device down its DVFS ladder (or, at the ladder floor, the
// hungriest throttleable sibling), so the parked job re-scores the
// placement at a cheaper operating point when it wakes.
func (l *Ledger) TryDraw(deviceID string, w energy.Watts) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost[deviceID] {
		l.stalls++
		return false
	}
	if l.idleTotal+l.dynDraw+w > l.capW {
		l.stalls++
		if l.gov == PackAndThrottle {
			l.throttleLocked(deviceID)
		}
		// Wake parked jobs even without a reshape: a sibling release may
		// have raced with this refusal.
		l.wakeLocked()
		return false
	}
	l.drawW[deviceID] += w
	l.dynDraw += w
	if d := l.idleTotal + l.dynDraw; d > l.peakW {
		l.peakW = d
	}
	return true
}

// ReleaseDraw returns granted watts and wakes every parked job. Releasing
// on a lost device is a no-op: DeviceLost already zeroed its draw, and
// late revocations from jobs crossing the crash on their private clocks
// must not double-release. Under PackAndThrottle a relaxed draw steps the
// most-throttled device back toward nominal.
func (l *Ledger) ReleaseDraw(deviceID string, w energy.Watts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.lost[deviceID] {
		if w > l.drawW[deviceID] {
			w = l.drawW[deviceID]
		}
		l.drawW[deviceID] -= w
		l.dynDraw -= w
	}
	if l.gov == PackAndThrottle {
		l.unthrottleLocked()
	}
	l.wakeLocked()
}

// Changed returns a channel closed on the next release, reshape or fleet
// event after this call — the park/wake protocol of admission stalls.
func (l *Ledger) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// DeviceLost removes a device from the power ledger: its static draw
// stops being charged and every outstanding dynamic grant on it is
// released at once (the core ledger's revocations will call ReleaseDraw
// later from each job's clock; those become no-ops). Parked jobs are
// woken — a loss frees watt headroom. Under PackAndThrottle the freed
// headroom may step throttled survivors back up.
func (l *Ledger) DeviceLost(deviceID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost[deviceID] {
		return
	}
	if _, ok := l.idleW[deviceID]; !ok {
		return
	}
	l.lost[deviceID] = true
	l.idleTotal -= l.idleW[deviceID]
	l.dynDraw -= l.drawW[deviceID]
	l.drawW[deviceID] = 0
	if l.gov == PackAndThrottle {
		l.unthrottleLocked()
	}
	l.wakeLocked()
}

// Lost reports whether the device was removed from the power ledger.
func (l *Ledger) Lost(deviceID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost[deviceID]
}

// wakeLocked closes and replaces the generation channel.
func (l *Ledger) wakeLocked() {
	close(l.gen)
	l.gen = make(chan struct{})
}

// throttleLocked steps a device one rung down its DVFS ladder; if the
// device is already at the floor, the healthy device with the largest
// dynamic draw that still has a lower rung is stepped instead.
func (l *Ledger) throttleLocked(deviceID string) {
	if l.stepDownLocked(deviceID) {
		return
	}
	best, bestDraw := "", energy.Watts(-1)
	for _, id := range l.ids {
		w, drawn := l.drawW[id]
		if !drawn || id == deviceID || l.lost[id] {
			continue
		}
		if l.point[id] < len(l.ladders[id].Points)-1 && w > bestDraw {
			best, bestDraw = id, w
		}
	}
	if best != "" {
		l.stepDownLocked(best)
	}
}

// stepDownLocked lowers one device's operating point if a rung exists.
func (l *Ledger) stepDownLocked(deviceID string) bool {
	if l.lost[deviceID] {
		return false
	}
	ladder, ok := l.ladders[deviceID]
	if !ok || l.point[deviceID] >= len(ladder.Points)-1 {
		return false
	}
	l.point[deviceID]++
	l.rescales++
	return true
}

// unthrottleLocked steps the most-throttled healthy device one rung back
// toward nominal once the draw has relaxed below 70% of the cap —
// hysteresis so the ladder does not flap on every release.
func (l *Ledger) unthrottleLocked() {
	if l.idleTotal+l.dynDraw > 0.7*l.capW {
		return
	}
	best, depth := "", 0
	for _, id := range l.ids {
		if p := l.point[id]; !l.lost[id] && p > depth {
			best, depth = id, p
		}
	}
	if best != "" {
		l.point[best]--
		l.rescales++
	}
}
