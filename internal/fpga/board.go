// Package fpga is a behavioural model of the Xilinx FPGA boards used in the
// paper's aggressive-undervolting study (Sec. III, Fig. 5): VC707
// (performance-oriented Virtex), two samples of KC705 (power-oriented
// Kintex), and ZC702 (CPU-based Zynq). All are 28 nm parts whose Block RAMs
// (BRAMs) sit on an independently regulated rail, VCCBRAM, nominally 1 V.
//
// The model reproduces the three published voltage regions:
//
//   - guardband  [Vmin, Vnom]: fully reliable, power drops with voltage;
//   - critical   [Vcrash, Vmin): BRAM contents suffer bit faults whose rate
//     grows exponentially as voltage falls, reaching the published
//     faults/Mbit figure at Vcrash (652 VC707, 254 KC705-A, 60 KC705-B,
//     153 ZC702);
//   - crash      (V < Vcrash): the DONE pin drops and the FPGA stops
//     responding.
//
// Fault locations model "weak cells": each board draws a deterministic,
// seed-dependent set of weak bit positions; cell j fails below a threshold
// voltage derived by inverting the exponential fault-rate law, so the fault
// population at any voltage matches the law exactly and fault sets are
// monotone (lowering voltage only adds faults), as observed on real silicon.
package fpga

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Profile is the published undervolting characterisation of one board.
type Profile struct {
	// Name identifies the board (e.g. "VC707").
	Name string
	// BRAMBlocks is the number of 36 Kbit BRAM blocks on the part.
	BRAMBlocks int
	// VNom is the nominal VCCBRAM level (1.0 V for all studied parts).
	VNom float64
	// VMin is the minimum safe voltage: the bottom of the vendor guardband.
	VMin float64
	// VCrash is the voltage at which the DONE pin drops.
	VCrash float64
	// FaultsPerMbitAtCrash is the measured fault density just above VCrash.
	FaultsPerMbitAtCrash float64
	// NominalRailWatts is the VCCBRAM rail power at VNom.
	NominalRailWatts float64
	// PowerExponent γ models rail power as P = Pnom·(V/Vnom)^γ. The
	// published >90% saving at VCrash requires γ ≈ 4 (supply current falls
	// super-linearly alongside the quadratic dynamic-power term).
	PowerExponent float64
}

// BRAMKbits is the size of one BRAM block in Kbit (36 Kbit on 7-series).
const BRAMKbits = 36

// MemBits returns the total BRAM capacity in bits.
func (p Profile) MemBits() int { return p.BRAMBlocks * BRAMKbits * 1024 }

// MemBytes returns the total BRAM capacity in bytes.
func (p Profile) MemBytes() int { return p.MemBits() / 8 }

// Mbits returns the capacity in megabits (10^6 bits, as the paper reports
// faults per Mbit).
func (p Profile) Mbits() float64 { return float64(p.MemBits()) / 1e6 }

// The four studied boards, calibrated to the endpoints published in
// Sec. III-B and the underlying MICRO'18 study [7]: all parts are 28 nm
// with VNom = 1.0 V; Vmin/Vcrash vary slightly per board and even between
// identical samples (KC705-A vs KC705-B).

// VC707 returns the performance-oriented Virtex-7 board profile.
func VC707() Profile {
	return Profile{
		Name: "VC707", BRAMBlocks: 1030,
		VNom: 1.0, VMin: 0.61, VCrash: 0.54,
		FaultsPerMbitAtCrash: 652,
		NominalRailWatts:     0.39,
		PowerExponent:        4.0,
	}
}

// KC705A returns the first power-oriented Kintex-7 sample.
func KC705A() Profile {
	return Profile{
		Name: "KC705-A", BRAMBlocks: 445,
		VNom: 1.0, VMin: 0.59, VCrash: 0.53,
		FaultsPerMbitAtCrash: 254,
		NominalRailWatts:     0.18,
		PowerExponent:        4.0,
	}
}

// KC705B returns the second, nominally identical Kintex-7 sample; its
// margins differ from KC705-A, showing process variation between samples.
func KC705B() Profile {
	return Profile{
		Name: "KC705-B", BRAMBlocks: 445,
		VNom: 1.0, VMin: 0.58, VCrash: 0.52,
		FaultsPerMbitAtCrash: 60,
		NominalRailWatts:     0.18,
		PowerExponent:        4.0,
	}
}

// ZC702 returns the CPU-based Zynq board profile.
func ZC702() Profile {
	return Profile{
		Name: "ZC702", BRAMBlocks: 140,
		VNom: 1.0, VMin: 0.60, VCrash: 0.54,
		FaultsPerMbitAtCrash: 153,
		NominalRailWatts:     0.06,
		PowerExponent:        4.0,
	}
}

// AllProfiles returns the four studied boards in the paper's order.
func AllProfiles() []Profile {
	return []Profile{VC707(), ZC702(), KC705A(), KC705B()}
}

// weakCell is one bit position that fails below vFail.
type weakCell struct {
	bit   int64
	vFail float64
}

// TempCoeffVPerC is the modelled shift of every cell-failure threshold per
// degree above the 25 °C ambient reference: hotter silicon is slower, so
// cells fail at higher voltages and the usable guardband shrinks — the
// "worst case process and environmental conditions" the vendor margin
// covers (Sec. III; Fig. 5 is measured "at ambient temperature").
const TempCoeffVPerC = 0.0006

// ReferenceTempC is the ambient reference temperature.
const ReferenceTempC = 25.0

// Board is an instantiated FPGA with a settable VCCBRAM rail.
type Board struct {
	Profile Profile

	mem     []byte
	voltage float64
	tempC   float64
	done    bool

	// weak cells sorted by vFail descending; the fault set at voltage v is
	// the prefix with vFail > v.
	weak       []weakCell
	faultCount int // current prefix length

	// faultMask is the XOR mask currently applied to reads, kept in a
	// sparse map from byte offset to mask byte.
	faultMask map[int64]byte
}

// ErrCrashed reports access to a board whose VCCBRAM is below VCrash.
var ErrCrashed = errors.New("fpga: board crashed (DONE pin unset)")

// NewBoard instantiates a board. The seed fixes the weak-cell map: two
// boards with the same profile and seed fault identically (a board's fault
// map is a stable physical fingerprint); different seeds model different
// silicon samples.
func NewBoard(profile Profile, seed int64) *Board {
	b := &Board{
		Profile:   profile,
		mem:       make([]byte, profile.MemBytes()),
		voltage:   profile.VNom,
		tempC:     ReferenceTempC,
		done:      true,
		faultMask: make(map[int64]byte),
	}
	b.generateWeakCells(seed)
	return b
}

// generateWeakCells inverts the exponential fault law to place weak cells.
//
// The law: faults(v) = N·exp(-k·(v - VCrash)) with faults(VCrash) = N and
// faults(VMin) = f0 (the onset density, one fault in the whole array).
// Sorting cells by failure voltage descending, cell j (1-based) fails at
//
//	vFail(j) = VCrash + ln(N/j)/k
//
// which makes the fault count at voltage v exactly ⌈faults(v)⌉.
func (b *Board) generateWeakCells(seed int64) {
	p := b.Profile
	n := int(math.Ceil(p.FaultsPerMbitAtCrash * p.Mbits()))
	if n < 1 {
		n = 1
	}
	// Onset: a single faulty bit at VMin.
	f0 := 1.0
	k := math.Log(float64(n)/f0) / (p.VMin - p.VCrash)

	rng := rand.New(rand.NewSource(seed))
	totalBits := int64(p.MemBits())
	seen := make(map[int64]struct{}, n)
	b.weak = make([]weakCell, 0, n)
	for j := 1; j <= n; j++ {
		var bit int64
		for {
			bit = rng.Int63n(totalBits)
			if _, dup := seen[bit]; !dup {
				seen[bit] = struct{}{}
				break
			}
		}
		v := p.VCrash + math.Log(float64(n)/float64(j))/k
		if v > p.VMin {
			v = p.VMin
		}
		b.weak = append(b.weak, weakCell{bit: bit, vFail: v})
	}
	// Already in descending vFail order by construction (j ascending →
	// vFail descending), but sort defensively for exactness at ties.
	sort.Slice(b.weak, func(i, j int) bool { return b.weak[i].vFail > b.weak[j].vFail })
}

// tempShift is the threshold shift induced by the current temperature:
// positive when hotter than the reference (thresholds move up).
func (b *Board) tempShift() float64 {
	return (b.tempC - ReferenceTempC) * TempCoeffVPerC
}

// EffectiveVMin returns the minimum safe voltage at the current
// temperature.
func (b *Board) EffectiveVMin() float64 { return b.Profile.VMin + b.tempShift() }

// EffectiveVCrash returns the crash voltage at the current temperature.
func (b *Board) EffectiveVCrash() float64 { return b.Profile.VCrash + b.tempShift() }

// SetTemperature changes the die temperature, shifting every threshold;
// a hot board may crash at a voltage that was safe when cool.
func (b *Board) SetTemperature(c float64) {
	b.tempC = c
	if b.voltage < b.EffectiveVCrash() {
		b.done = false
	}
	b.rebuildFaults()
}

// Done reports the DONE pin: false once the board has crashed.
func (b *Board) Done() bool { return b.done }

// SetVCCBRAM changes the rail voltage. Crossing below VCrash crashes the
// board (DONE drops); raising the voltage back above VCrash restores
// operation only after Reconfigure (as on real hardware, a crashed FPGA
// must be reprogrammed).
func (b *Board) SetVCCBRAM(v float64) {
	b.voltage = v
	if v < b.EffectiveVCrash() {
		b.done = false
	}
	b.rebuildFaults()
}

// Reconfigure reloads the bitstream: memory clears and, if the rail is at
// or above VCrash, the DONE pin comes back up.
func (b *Board) Reconfigure() {
	for i := range b.mem {
		b.mem[i] = 0
	}
	if b.voltage >= b.EffectiveVCrash() {
		b.done = true
	}
	b.rebuildFaults()
}

// rebuildFaults recomputes the active fault prefix and XOR mask.
func (b *Board) rebuildFaults() {
	// Count cells with vFail > effective voltage (prefix of the descending
	// list); temperature shifts every cell threshold uniformly.
	veff := b.voltage - b.tempShift()
	idx := sort.Search(len(b.weak), func(i int) bool { return b.weak[i].vFail <= veff })
	b.faultCount = idx
	for k := range b.faultMask {
		delete(b.faultMask, k)
	}
	if !b.done {
		return
	}
	for _, wc := range b.weak[:idx] {
		b.faultMask[wc.bit/8] ^= 1 << uint(wc.bit%8)
	}
}

// FaultCount returns the number of currently faulty bits.
func (b *Board) FaultCount() int {
	if b.voltage >= b.EffectiveVMin() {
		return 0
	}
	return b.faultCount
}

// FaultsPerMbit returns the current fault density.
func (b *Board) FaultsPerMbit() float64 {
	return float64(b.FaultCount()) / b.Profile.Mbits()
}

// RailPower returns the VCCBRAM rail power at the current voltage:
// P = Pnom·(V/Vnom)^γ; zero once crashed (rail is still powered on real
// boards, but the paper reports delivered BRAM power, which collapses).
func (b *Board) RailPower() float64 {
	p := b.Profile
	return p.NominalRailWatts * math.Pow(b.voltage/p.VNom, p.PowerExponent)
}

// PowerSavingPercent returns the rail-power saving at the current voltage
// versus nominal, in percent.
func (b *Board) PowerSavingPercent() float64 {
	return (1 - b.RailPower()/b.Profile.NominalRailWatts) * 100
}

// Write stores data at a byte offset in BRAM address space. Writes to a
// crashed board fail.
func (b *Board) Write(offset int64, data []byte) error {
	if !b.done {
		return ErrCrashed
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(b.mem)) {
		return fmt.Errorf("fpga: write [%d, %d) outside BRAM space of %d bytes",
			offset, offset+int64(len(data)), len(b.mem))
	}
	copy(b.mem[offset:], data)
	return nil
}

// Read fetches len(buf) bytes from a byte offset, applying the current
// fault mask: below VMin, weak cells return flipped bits.
func (b *Board) Read(offset int64, buf []byte) error {
	if !b.done {
		return ErrCrashed
	}
	if offset < 0 || offset+int64(len(buf)) > int64(len(b.mem)) {
		return fmt.Errorf("fpga: read [%d, %d) outside BRAM space of %d bytes",
			offset, offset+int64(len(buf)), len(b.mem))
	}
	copy(buf, b.mem[offset:offset+int64(len(buf))])
	if b.FaultCount() == 0 {
		return nil
	}
	// Apply sparse fault mask over the read window.
	for off, mask := range b.faultMask {
		if off >= offset && off < offset+int64(len(buf)) {
			buf[off-offset] ^= mask
		}
	}
	return nil
}

// MemBytes returns the BRAM capacity in bytes.
func (b *Board) MemBytes() int { return len(b.mem) }
