package hw

import "testing"

// TestDFEOnPCIeExpansionCarrier: Maxeler-class dataflow engines populate
// the PCIe expansion carriers of the RECS|BOX (Sec. II-A: "FPGA-based
// Dataflow Engines (DFE)").
func TestDFEOnPCIeExpansionCarrier(t *testing.T) {
	b := NewRECSBox("r")
	px, err := b.AddCarrier(PCIeExpansionCarrier)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := b.Populate(px, MaxelerDFE())
	if err != nil {
		t.Fatalf("DFE rejected by PCIe carrier: %v", err)
	}
	if ms.Device.Spec.Class != DFE {
		t.Fatalf("class: %v", ms.Device.Spec.Class)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// DFEs do not fit the other carrier classes.
	lp, _ := b.AddCarrier(LowPowerCarrier)
	if _, err := b.Populate(lp, MaxelerDFE()); err == nil {
		t.Fatal("DFE accepted on a low-power carrier")
	}
	hp, _ := b.AddCarrier(HighPerfCarrier)
	if _, err := b.Populate(hp, MaxelerDFE()); err == nil {
		t.Fatal("DFE accepted on a high-performance carrier")
	}
}

// TestDFEStreamEfficiency: the DFE spec trades clock for full pipelining —
// its energy per operation must undercut the CPU's.
func TestDFEStreamEfficiency(t *testing.T) {
	dfe := MaxelerDFE()
	cpu := XeonD()
	dfeJPerGop := (dfe.PeakWatts - dfe.IdleWatts) / dfe.GOPS
	cpuJPerGop := (cpu.PeakWatts - cpu.IdleWatts) / cpu.GOPS
	if dfeJPerGop >= cpuJPerGop {
		t.Fatalf("DFE not more efficient: %.4f vs %.4f J/gop", dfeJPerGop, cpuJPerGop)
	}
}

// TestEdgeCPUGPUGPUComposition covers the second Sec. VI edge variant.
func TestEdgeCPUGPUGPUComposition(t *testing.T) {
	s, err := MirrorEdgeCPUGPUGPU("edge")
	if err != nil {
		t.Fatal(err)
	}
	gpus := 0
	for _, m := range s.Modules {
		if m.Device.Spec.Class == GPU {
			gpus++
		}
	}
	if gpus != 2 || s.ByClass(CPUARM) == nil {
		t.Fatalf("composition wrong: %d GPUs", gpus)
	}
}
