// Package hw models the heterogeneous hardware substrate of the LEGaTO
// project: compute devices (CPU, GPU, FPGA, DFE, SoC), their power and
// performance characteristics including DVFS, and the RECS|BOX microserver
// platform of paper Figs. 3-4 together with the Smart-Mirror edge server of
// Fig. 9.
//
// Everything is a read-only catalogue: a device is a spec (capacity, DVFS
// points, idle and peak draw) under an identifier, and the spec's pure cost
// functions map work and an operating point to duration, dynamic watts and
// energy. The task runtime (taskrt), the fleet ledger (power) and the use
// cases (mirror) keep all run state themselves, so any number of runs may
// share one fleet.
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

// State returns DVFS state i (index into States; the implicit nominal state
// for a spec without explicit states).
func (s *Spec) State(i int) DVFSState {
	if len(s.States) == 0 {
		return s.nominal()
	}
	return s.States[i]
}

// SpeedScale is the frequency of state i relative to nominal.
func (s *Spec) SpeedScale(i int) float64 {
	nom, cur := s.nominal(), s.State(i)
	if nom.FreqGHz == 0 {
		return 1
	}
	return cur.FreqGHz / nom.FreqGHz
}

// PowerScale is the dynamic-power scaling f·V² of state i relative to
// nominal.
func (s *Spec) PowerScale(i int) float64 {
	nom, cur := s.nominal(), s.State(i)
	if nom.FreqGHz == 0 || nom.Voltage == 0 {
		return 1
	}
	return (cur.FreqGHz / nom.FreqGHz) * (cur.Voltage / nom.Voltage) * (cur.Voltage / nom.Voltage)
}

// DynamicWatts returns the incremental draw of keeping n cores busy at
// state i, excluding idle power — the quantity a fleet power-cap ledger
// charges for a placement.
func (s *Spec) DynamicWatts(n, i int) energy.Watts {
	if s.Cores == 0 {
		return 0
	}
	perCore := (s.PeakWatts - s.IdleWatts) / float64(s.Cores)
	return perCore * float64(n) * s.PowerScale(i)
}

// ExecTime returns the duration for `gops` giga-operations using n cores at
// state i. Work splits perfectly across cores (the runtimes layer imposes
// their own efficiency models on top).
func (s *Spec) ExecTime(gops float64, n, i int) sim.Time {
	if n <= 0 || s.Cores == 0 || s.GOPS == 0 {
		return 0
	}
	perCore := s.GOPS / float64(s.Cores)
	rate := perCore * float64(n) * s.SpeedScale(i)
	if rate <= 0 {
		return 0
	}
	return sim.Seconds(gops / rate)
}

// EnergyFor estimates the incremental (dynamic) energy of running `gops`
// on n cores at state i, excluding idle draw.
func (s *Spec) EnergyFor(gops float64, n, i int) energy.Joules {
	return s.DynamicWatts(n, i) * sim.ToSeconds(s.ExecTime(gops, n, i))
}

// Device is one piece of installed hardware: a catalogue spec under a
// platform-unique identifier. Devices are read-only; run state (busy cores,
// DVFS point, loss) lives with the runtime and the fleet ledger.
type Device struct {
	Spec Spec
	ID   string
}
