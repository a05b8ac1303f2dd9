// Package undervolt implements the aggressive-undervolting experiment
// controller of paper Sec. III: voltage sweeps over the VCCBRAM rail of the
// modelled FPGA boards, memory-test fault counting, voltage-region
// detection (guardband / critical / crash) and power measurement — the
// machinery that regenerates Fig. 5.
package undervolt

import (
	"fmt"
	"math/bits"

	"legato/internal/fpga"
)

// Region classifies an operating voltage (Fig. 5).
type Region int

const (
	// Guardband: at or above Vmin — reliable operation, vendor margin.
	Guardband Region = iota
	// Critical: below Vmin but at/above Vcrash — faults appear, rate grows
	// exponentially.
	Critical
	// Crash: below Vcrash — DONE unset, board unresponsive.
	Crash
)

// String names the region.
func (r Region) String() string {
	switch r {
	case Guardband:
		return "guardband"
	case Critical:
		return "critical"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// Classify returns the region of voltage v for profile p.
func Classify(p fpga.Profile, v float64) Region {
	switch {
	case v >= p.VMin:
		return Guardband
	case v >= p.VCrash:
		return Critical
	default:
		return Crash
	}
}

// Point is one sweep measurement.
type Point struct {
	Voltage       float64
	Region        Region
	RailWatts     float64
	SavingPercent float64
	// FaultsPerMbit is the measured fault density from the memory test
	// (zero in the guardband; undefined — reported 0 — once crashed).
	FaultsPerMbit float64
	// Faults is the absolute faulty-bit count.
	Faults int
	// Crashed reports the DONE pin dropping at this step.
	Crashed bool
}

// Sweep is the result of one board's voltage sweep.
type Sweep struct {
	Board  string
	Points []Point
	// VMinObserved is the highest stepped voltage at which faults appeared,
	// plus one step: the measured bottom of the guardband.
	VMinObserved float64
	// VCrashObserved is the voltage step at which the board crashed.
	VCrashObserved float64
}

// testPattern fills the board with a checkerboard and returns it for
// comparison. 0xA5 exercises both polarities in every byte.
const testPattern = 0xA5

// memTest writes the pattern, reads it back, and counts bit errors.
// It returns the number of flipped bits.
func memTest(b *fpga.Board) (int, error) {
	size := b.MemBytes()
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = testPattern
	}
	if err := b.Write(0, pattern); err != nil {
		return 0, err
	}
	got := make([]byte, size)
	if err := b.Read(0, got); err != nil {
		return 0, err
	}
	faults := 0
	for i := range got {
		faults += bits.OnesCount8(got[i] ^ pattern[i])
	}
	return faults, nil
}

// Run sweeps VCCBRAM from vStart down to vEnd (inclusive) in steps of
// stepV, performing a memory test and power measurement at each point.
// The sweep stops at the first crash (matching the paper's methodology:
// beyond Vcrash the board no longer responds).
func Run(b *fpga.Board, vStart, vEnd, stepV float64) (*Sweep, error) {
	if stepV <= 0 {
		return nil, fmt.Errorf("undervolt: step must be positive, got %v", stepV)
	}
	if vStart < vEnd {
		return nil, fmt.Errorf("undervolt: sweep must descend (start %v < end %v)", vStart, vEnd)
	}
	s := &Sweep{Board: b.Profile.Name, VMinObserved: vStart}
	lastSafe := vStart
	// Descend in integer steps to avoid float accumulation drift.
	n := int((vStart-vEnd)/stepV + 0.5)
	for i := 0; i <= n; i++ {
		v := vStart - float64(i)*stepV
		b.SetVCCBRAM(v)
		pt := Point{
			Voltage:       v,
			Region:        Classify(b.Profile, v),
			RailWatts:     b.RailPower(),
			SavingPercent: b.PowerSavingPercent(),
		}
		if !b.Done() {
			pt.Crashed = true
			s.VCrashObserved = v
			s.Points = append(s.Points, pt)
			break
		}
		faults, err := memTest(b)
		if err != nil {
			return nil, fmt.Errorf("undervolt: memory test at %.3f V: %w", v, err)
		}
		pt.Faults = faults
		pt.FaultsPerMbit = float64(faults) / b.Profile.Mbits()
		if faults == 0 {
			lastSafe = v
		}
		s.Points = append(s.Points, pt)
	}
	s.VMinObserved = lastSafe
	return s, nil
}

// MaxSaving returns the largest power saving (percent) measured before the
// crash point — the paper reports >90% at Vcrash for VC707.
func (s *Sweep) MaxSaving() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.SavingPercent > max {
			max = p.SavingPercent
		}
	}
	return max
}

// FaultsAtCrash returns the fault density at the last responding voltage
// step before the crash.
func (s *Sweep) FaultsAtCrash() float64 {
	last := 0.0
	for _, p := range s.Points {
		if p.Crashed {
			break
		}
		last = p.FaultsPerMbit
	}
	return last
}

// RunAll sweeps every published board profile with the given seed base and
// step, in the paper's order.
func RunAll(seed int64, vEnd, stepV float64) ([]*Sweep, error) {
	var out []*Sweep
	for i, p := range fpga.AllProfiles() {
		b := fpga.NewBoard(p, seed+int64(i))
		s, err := Run(b, p.VNom, vEnd, stepV)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
