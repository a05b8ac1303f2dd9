// Package faults drives an MTBF-based failure process over the virtual
// clock of the LEGaTO session engine (paper Sec. IV): devices crash
// (removed from fleet capacity, in-flight work revoked), degrade (capacity
// shrink), or silently corrupt task outputs (per-class SDC probabilities,
// detected only by the DMR vote on replicated tasks).
//
// The process is sampled deterministically from a Plan: per-device
// exponential draws seeded by (Plan.Seed, device ID), so a given plan over
// a given fleet always yields the same fault timeline — experiments and
// the E12 gate depend on that reproducibility.
//
// Layering: faults knows the hardware model and the monitor registry but
// not the engine. The engine hands the Injector a FleetControl (its fleet
// ledger, which also holds device liveness) and replays the sampled events
// on each job's private clock; the injector makes the *global* state
// change exactly once no matter how many jobs cross the event time.
package faults

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/sim"
)

// Kind enumerates the fault classes of the failure process.
type Kind int

const (
	// Crash permanently removes a device from the fleet.
	Crash Kind = iota
	// Degrade shrinks a device's capacity to Event.Capacity cores.
	Degrade
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Degrade:
		return "degrade"
	default:
		return "fault"
	}
}

// Event is one scheduled fault of the sampled failure timeline.
type Event struct {
	At     sim.Time
	Device string
	Class  hw.Class
	Kind   Kind
	// Capacity is the post-event core count (Degrade only).
	Capacity int
	// Slowdown is the silent execution-time stretch the degraded device
	// suffers (Degrade only; 1 = none). Unlike the capacity shrink it is
	// invisible to placement — only the straggler watchdog can observe it.
	Slowdown float64
}

// Plan parametrises the failure process. The zero plan injects nothing.
type Plan struct {
	// MTBF gives per-class mean time between hard crashes in seconds; a
	// class absent from the map never crashes.
	MTBF ft.MTBFModel
	// MaxCrashes bounds how many devices may crash during the session
	// (earliest sampled crashes win); zero means 1 when MTBF is set.
	MaxCrashes int
	// DegradeMTBF gives per-class mean time between degrade events.
	DegradeMTBF ft.MTBFModel
	// DegradeTo is the fraction of cores a degraded device retains
	// (default 0.5; clamped to [0, 1]).
	DegradeTo float64
	// DegradeSlowdown is the silent execution-time multiplier a degraded
	// device suffers (values <= 1 mean none — the historical capacity-only
	// degrade). The slowdown is hidden from placement: jobs keep scheduling
	// onto the device with clean cost-model expectations, which is exactly
	// the tail-latency pathology hedged execution mitigates.
	DegradeSlowdown float64
	// SDC gives per-class, per-execution silent-corruption probabilities.
	SDC ft.SDCModel
	// Seed makes the sampled timeline reproducible.
	Seed int64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return len(p.MTBF) > 0 || len(p.DegradeMTBF) > 0 || len(p.SDC) > 0
}

// rng returns a deterministic per-device random stream: the timeline of a
// device depends only on (seed, stream, device ID), never on fleet
// iteration order.
func rng(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// expSample draws an exponential waiting time with the given mean seconds
// and converts it to virtual time.
func expSample(r *rand.Rand, meanSeconds float64) sim.Time {
	if meanSeconds <= 0 || math.IsInf(meanSeconds, 0) {
		return 0
	}
	sec := r.ExpFloat64() * meanSeconds
	return sim.Time(sec * float64(time.Second))
}

// Schedule samples the deterministic fault timeline for the reference
// devices: one exponential crash draw and one degrade draw per device
// (classes absent from the respective model are immortal), crashes
// truncated to the MaxCrashes earliest, sorted by time.
func (p Plan) Schedule(devices []*hw.Device) []Event {
	var crashes, degrades []Event
	for _, d := range devices {
		if mean, ok := p.MTBF[d.Spec.Class]; ok {
			if at := expSample(rng(p.Seed, "crash/"+d.ID), mean); at > 0 {
				crashes = append(crashes, Event{At: at, Device: d.ID, Class: d.Spec.Class, Kind: Crash})
			}
		}
		if mean, ok := p.DegradeMTBF[d.Spec.Class]; ok {
			if at := expSample(rng(p.Seed, "degrade/"+d.ID), mean); at > 0 {
				frac := p.DegradeTo
				if frac <= 0 {
					frac = 0.5
				}
				if frac > 1 {
					frac = 1
				}
				keep := int(math.Floor(float64(d.Spec.Cores) * frac))
				slow := p.DegradeSlowdown
				if slow < 1 {
					slow = 1
				}
				degrades = append(degrades, Event{At: at, Device: d.ID, Class: d.Spec.Class, Kind: Degrade, Capacity: keep, Slowdown: slow})
			}
		}
	}
	sort.Slice(crashes, func(i, j int) bool { return crashes[i].At < crashes[j].At })
	max := p.MaxCrashes
	if max <= 0 {
		max = 1
	}
	if len(crashes) > max {
		crashes = crashes[:max]
	}
	events := append(crashes, degrades...)
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Device < events[j].Device
	})
	return events
}

// FleetControl is the slice of the fleet ledger the injector needs;
// power.Ledger implements it. Fail reports whether the call removed the
// device, which makes the ledger the arbiter of exactly-once crashes.
type FleetControl interface {
	Fail(deviceID string) bool
	Lost(deviceID string) bool
	SetCapacity(deviceID string, cores int)
	Capacity(deviceID string) int
}

// Injector owns the sampled timeline and applies each global fault exactly
// once. Jobs run on private virtual clocks, so several jobs may cross the
// same event time (in any wall-clock order); the injector is the
// synchronisation point that turns those per-job observations into a
// single fleet-level state change. Safe for concurrent use.
type Injector struct {
	plan   Plan
	fleet  FleetControl
	reg    *monitor.Registry
	events []Event

	mu       sync.Mutex
	degraded map[string]bool // devices whose degrade was applied
	crashes  int
}

// NewInjector samples the plan over the reference devices and returns the
// injector that will apply it to the given fleet. reg may be nil.
func NewInjector(plan Plan, fleet FleetControl, devices []*hw.Device, reg *monitor.Registry) *Injector {
	return &Injector{
		plan:     plan,
		fleet:    fleet,
		reg:      reg,
		events:   plan.Schedule(devices),
		degraded: make(map[string]bool),
	}
}

// Events returns the sampled timeline (shared slice; do not mutate).
func (in *Injector) Events() []Event { return in.events }

// Lost reports whether the device has already crashed globally.
func (in *Injector) Lost(deviceID string) bool { return in.fleet.Lost(deviceID) }

// Crash applies the global crash of a device: the first caller removes it
// from the fleet and gets true; later callers (other jobs crossing the
// same virtual instant) get false. Every job must still fail its own
// mirror regardless of the return value.
func (in *Injector) Crash(deviceID string) bool {
	if !in.fleet.Fail(deviceID) {
		return false
	}
	in.mu.Lock()
	in.crashes++
	in.mu.Unlock()
	if in.reg != nil {
		in.reg.Add("faults", "device-crashes", 1)
	}
	return true
}

// Degrade applies a global capacity shrink exactly once; the first caller
// gets true.
func (in *Injector) Degrade(ev Event) bool {
	in.mu.Lock()
	if in.degraded[ev.Device] || in.fleet.Lost(ev.Device) {
		in.mu.Unlock()
		return false
	}
	in.degraded[ev.Device] = true
	in.mu.Unlock()
	if ev.Capacity < in.fleet.Capacity(ev.Device) {
		in.fleet.SetCapacity(ev.Device, ev.Capacity)
	}
	if in.reg != nil {
		in.reg.Add("faults", "device-degrades", 1)
	}
	return true
}

// Crashes reports how many devices have crashed so far.
func (in *Injector) Crashes() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashes
}

// Sampler returns a per-job silent-data-corruption oracle: a deterministic
// function of (plan seed, stream, class, draw index) suitable for
// taskrt.SetCorruptor. extra is an additional per-execution corruption
// probability on top of the class's base rate — how undervolted operating
// points (power.SDCProbability) feed the failure model: a crash-only plan
// still exposes undervolt risk. The returned closure is confined to the
// owning job's goroutine and must not be shared. A class absent from the
// SDC model with zero extra consumes no random draw, so adding undervolted
// tasks does not perturb the timeline of guardband ones.
func (in *Injector) Sampler(stream int64) func(c hw.Class, extra float64) bool {
	r := rand.New(rand.NewSource(in.plan.Seed ^ (stream+1)*0x5851f42d4c957f2d))
	sdc := in.plan.SDC
	reg := in.reg
	return func(c hw.Class, extra float64) bool {
		p := sdc[c] + extra
		if p <= 0 {
			return false
		}
		hit := r.Float64() < p
		if hit && reg != nil {
			reg.Add("faults", "sdc-events", 1)
		}
		return hit
	}
}
