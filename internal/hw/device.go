// Package hw models the heterogeneous hardware substrate of the LEGaTO
// project: compute devices (CPU, GPU, FPGA, DFE, SoC), their power and
// performance characteristics including DVFS, and the RECS|BOX microserver
// platform of paper Figs. 3-4 together with the Smart-Mirror edge server of
// Fig. 9.
//
// Everything is a behavioural model: devices expose capacity, a
// work→duration mapping and a utilisation→power mapping, which is exactly
// the surface the runtimes (taskrt, xitao) and the use cases (mirror)
// consume.
package hw

import (
	"fmt"

	"legato/internal/energy"
	"legato/internal/sim"
)

// Class enumerates the device families LEGaTO targets (paper Sec. II-A).
type Class int

const (
	// CPUx86 is a high-performance x86 microserver CPU (COM Express).
	CPUx86 Class = iota
	// CPUARM is an ARM64 CPU (low-power or COM Express ARMv8).
	CPUARM
	// GPU is a discrete or SoC GPU accelerator.
	GPU
	// FPGA is a reconfigurable-fabric accelerator.
	FPGA
	// DFE is a Maxeler-style dataflow engine.
	DFE
)

// String names the device class.
func (c Class) String() string {
	switch c {
	case CPUx86:
		return "cpu-x86"
	case CPUARM:
		return "cpu-arm"
	case GPU:
		return "gpu"
	case FPGA:
		return "fpga"
	case DFE:
		return "dfe"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DVFSState is one frequency/voltage operating point. Dynamic power scales
// as f·V² (paper Sec. III: "dynamic power is quadratic in voltage").
type DVFSState struct {
	Name string
	// FreqGHz is the clock at this state.
	FreqGHz float64
	// Voltage is the supply voltage at this state, in volts.
	Voltage float64
}

// Spec describes a device model: capability and power characteristics.
type Spec struct {
	Name  string
	Class Class
	// Cores is the parallel width (CPU cores, GPU SMs, FPGA regions).
	Cores int
	// MemBytes is the device-local memory capacity.
	MemBytes int64
	// GOPS is sustained giga-operations/second at the nominal DVFS state
	// with all cores busy.
	GOPS float64
	// IdleWatts is the draw at zero utilisation, nominal DVFS.
	IdleWatts energy.Watts
	// PeakWatts is the draw at full utilisation, nominal DVFS.
	PeakWatts energy.Watts
	// States are the supported DVFS operating points; States[0] is nominal.
	// An empty slice means a single implicit nominal state (1 GHz, 1 V).
	States []DVFSState
}

// nominal returns the nominal DVFS state.
func (s *Spec) nominal() DVFSState {
	if len(s.States) == 0 {
		return DVFSState{Name: "nominal", FreqGHz: 1, Voltage: 1}
	}
	return s.States[0]
}

// Device is an instantiated piece of hardware with an operating point,
// a utilisation level and an attached power meter.
type Device struct {
	Spec Spec
	ID   string

	eng   *sim.Engine
	meter *energy.Meter

	stateIdx int
	busy     int // cores currently busy
	healthy  bool
}

// NewDevice instantiates spec with an identifier; the device starts healthy,
// idle, at the nominal DVFS state.
func NewDevice(eng *sim.Engine, id string, spec Spec) *Device {
	d := &Device{Spec: spec, ID: id, eng: eng, healthy: true}
	d.meter = energy.NewMeter(eng, id)
	d.updatePower()
	return d
}

// Meter exposes the device power meter.
func (d *Device) Meter() *energy.Meter { return d.meter }

// Healthy reports whether the device is operational.
func (d *Device) Healthy() bool { return d.healthy }

// Fail marks the device failed: zero power, no capacity.
func (d *Device) Fail() {
	d.healthy = false
	d.meter.SetPower(0)
}

// Repair restores a failed device to idle.
func (d *Device) Repair() {
	d.healthy = true
	d.busy = 0
	d.updatePower()
}

// State returns the current DVFS state.
func (d *Device) State() DVFSState {
	if len(d.Spec.States) == 0 {
		return d.Spec.nominal()
	}
	return d.Spec.States[d.stateIdx]
}

// StateIndex returns the index of the current DVFS state in Spec.States
// (0 for devices without explicit states).
func (d *Device) StateIndex() int {
	if len(d.Spec.States) == 0 {
		return 0
	}
	return d.stateIdx
}

// SetState selects DVFS state i (index into Spec.States).
func (d *Device) SetState(i int) error {
	if i < 0 || i >= len(d.Spec.States) {
		return fmt.Errorf("hw: device %s has no DVFS state %d", d.ID, i)
	}
	d.stateIdx = i
	d.updatePower()
	return nil
}

// freqScale is current frequency relative to nominal.
func (d *Device) freqScale() float64 {
	nom := d.Spec.nominal()
	cur := d.State()
	if nom.FreqGHz == 0 {
		return 1
	}
	return cur.FreqGHz / nom.FreqGHz
}

// powerScale is dynamic-power scaling f·V² relative to nominal.
func (d *Device) powerScale() float64 {
	nom := d.Spec.nominal()
	cur := d.State()
	if nom.FreqGHz == 0 || nom.Voltage == 0 {
		return 1
	}
	return (cur.FreqGHz / nom.FreqGHz) * (cur.Voltage / nom.Voltage) * (cur.Voltage / nom.Voltage)
}

// Utilization returns busy cores / total cores in [0,1].
func (d *Device) Utilization() float64 {
	if d.Spec.Cores == 0 {
		return 0
	}
	return float64(d.busy) / float64(d.Spec.Cores)
}

// Acquire marks n cores busy; it fails if the device lacks free cores or is
// unhealthy.
func (d *Device) Acquire(n int) error {
	if !d.healthy {
		return fmt.Errorf("hw: device %s is failed", d.ID)
	}
	if d.busy+n > d.Spec.Cores {
		return fmt.Errorf("hw: device %s has %d/%d cores busy, cannot acquire %d",
			d.ID, d.busy, d.Spec.Cores, n)
	}
	d.busy += n
	d.updatePower()
	return nil
}

// Release frees n cores.
func (d *Device) Release(n int) {
	if n > d.busy {
		panic(fmt.Sprintf("hw: device %s releasing %d cores with only %d busy", d.ID, n, d.busy))
	}
	d.busy -= n
	d.updatePower()
}

// BusyCores returns the current number of busy cores.
func (d *Device) BusyCores() int { return d.busy }

// updatePower recomputes the meter draw from utilisation and DVFS state.
// Static (idle) power is independent of frequency; dynamic power scales
// with utilisation and f·V².
func (d *Device) updatePower() {
	if !d.healthy {
		return
	}
	dynamic := (d.Spec.PeakWatts - d.Spec.IdleWatts) * d.Utilization() * d.powerScale()
	d.meter.SetPower(d.Spec.IdleWatts + dynamic)
}

// DynamicWatts returns the incremental draw of keeping n cores busy at the
// current DVFS state, excluding idle power — the quantity a fleet power-cap
// ledger charges for a placement.
func (d *Device) DynamicWatts(n int) energy.Watts {
	if d.Spec.Cores == 0 {
		return 0
	}
	perCore := (d.Spec.PeakWatts - d.Spec.IdleWatts) / float64(d.Spec.Cores)
	return perCore * float64(n) * d.powerScale()
}

// ExecTime returns the duration for `gops` giga-operations using n cores at
// the current DVFS state. Work splits perfectly across cores (the runtimes
// layer imposes their own efficiency models on top).
func (d *Device) ExecTime(gops float64, n int) sim.Time {
	if n <= 0 || d.Spec.Cores == 0 || d.Spec.GOPS == 0 {
		return 0
	}
	perCore := d.Spec.GOPS / float64(d.Spec.Cores)
	rate := perCore * float64(n) * d.freqScale()
	if rate <= 0 {
		return 0
	}
	return sim.Seconds(gops / rate)
}

// EnergyFor estimates the incremental (dynamic) energy of running `gops`
// on n cores at the current state, excluding idle draw.
func (d *Device) EnergyFor(gops float64, n int) energy.Joules {
	t := sim.ToSeconds(d.ExecTime(gops, n))
	if d.Spec.Cores == 0 {
		return 0
	}
	perCoreDyn := (d.Spec.PeakWatts - d.Spec.IdleWatts) / float64(d.Spec.Cores)
	return perCoreDyn * float64(n) * d.powerScale() * t
}
