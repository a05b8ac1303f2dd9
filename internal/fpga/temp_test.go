package fpga

import "testing"

func TestTemperatureShiftsThresholds(t *testing.T) {
	p := ZC702()
	b := NewBoard(p, 20)
	if b.tempC != ReferenceTempC {
		t.Fatalf("default temperature: %v", b.tempC)
	}
	if b.EffectiveVMin() != p.VMin || b.EffectiveVCrash() != p.VCrash {
		t.Fatal("thresholds shifted at reference temperature")
	}
	b.SetTemperature(85) // hot data-centre corner
	if b.EffectiveVMin() <= p.VMin || b.EffectiveVCrash() <= p.VCrash {
		t.Fatal("hot thresholds did not rise")
	}
}

func TestHotBoardFaultsEarlier(t *testing.T) {
	p := ZC702()
	cool := NewBoard(p, 21)
	hot := NewBoard(p, 21)
	hot.SetTemperature(85)
	// Just below the ambient Vmin: cool board shows few faults, hot board
	// strictly more (same weak-cell map, shifted thresholds).
	v := p.VMin - 0.005
	cool.SetVCCBRAM(v)
	hot.SetVCCBRAM(v)
	if hot.FaultCount() <= cool.FaultCount() {
		t.Fatalf("hot board not worse: hot %d vs cool %d", hot.FaultCount(), cool.FaultCount())
	}
}

func TestHotBoardCrashesAtHigherVoltage(t *testing.T) {
	p := ZC702()
	b := NewBoard(p, 22)
	// A voltage between ambient VCrash and the hot effective VCrash.
	v := p.VCrash + 0.01
	b.SetVCCBRAM(v)
	if !b.Done() {
		t.Fatal("board crashed above ambient VCrash while cool")
	}
	b.SetTemperature(85) // shift = 60 × 0.0006 = 0.036 V > 0.01 V margin
	if b.Done() {
		t.Fatal("hot board survived below its effective crash voltage")
	}
	// Cooling down alone does not revive it (needs reconfiguration).
	b.SetTemperature(ReferenceTempC)
	if b.Done() {
		t.Fatal("board revived by cooling without reconfiguration")
	}
	b.Reconfigure()
	if !b.Done() {
		t.Fatal("reconfigure after cooling failed")
	}
}

func TestGuardbandAbsorbsTemperature(t *testing.T) {
	// The vendor guardband exists to cover environmental corners: at
	// nominal voltage even a hot board must be fault-free.
	p := VC707()
	b := NewBoard(p, 23)
	b.SetTemperature(100)
	if b.FaultCount() != 0 || !b.Done() {
		t.Fatal("hot board at nominal voltage must be reliable — that is what the guardband buys")
	}
}
