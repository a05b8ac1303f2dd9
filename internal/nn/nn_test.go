package nn

import (
	"testing"

	"legato/internal/fpga"
)

func trainedModel(t *testing.T) (*MLP, [][]float64, []int) {
	t.Helper()
	X, y := Blobs(1200, 16, 4, 1.2, 1)
	m := NewMLP(16, 32, 4, 2)
	m.Train(X[:1000], y[:1000], 8, 0.01, 3)
	return m, X[1000:], y[1000:]
}

func TestTrainingLearnsBlobs(t *testing.T) {
	m, Xtest, ytest := trainedModel(t)
	acc := accuracy(m.Predict, Xtest, ytest)
	if acc < 0.9 {
		t.Fatalf("float accuracy %.2f below 0.9", acc)
	}
}

func TestQuantisationPreservesAccuracy(t *testing.T) {
	m, Xtest, ytest := trainedModel(t)
	q := m.Quantise()
	fa := accuracy(m.Predict, Xtest, ytest)
	qa := q.Accuracy(Xtest, ytest)
	if fa-qa > 0.05 {
		t.Fatalf("quantisation lost too much: float %.3f vs int8 %.3f", fa, qa)
	}
}

func TestBRAMRoundTripAtNominal(t *testing.T) {
	m, Xtest, ytest := trainedModel(t)
	q := m.Quantise()
	b := fpga.NewBoard(fpga.ZC702(), 10)
	if err := q.StoreToBRAM(b); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFromBRAM(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Accuracy(Xtest, ytest), q.Accuracy(Xtest, ytest); got != want {
		t.Fatalf("nominal-voltage BRAM load changed accuracy: %.3f vs %.3f", got, want)
	}
}

func TestInherentResilienceUnderUndervolting(t *testing.T) {
	m, Xtest, ytest := trainedModel(t)
	q := m.Quantise()
	p := fpga.ZC702()
	b := fpga.NewBoard(p, 11)
	if err := q.StoreToBRAM(b); err != nil {
		t.Fatal(err)
	}
	baseline := q.Accuracy(Xtest, ytest)

	// Just below the guardband: faults are rare; accuracy within 3 points
	// (the Sec. III-C resilience claim).
	b.SetVCCBRAM(p.VMin - 0.01)
	onset, err := LoadFromBRAM(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if acc := onset.Accuracy(Xtest, ytest); baseline-acc > 0.03 {
		t.Fatalf("onset-region accuracy dropped too much: %.3f vs %.3f", acc, baseline)
	}
	// Power saving below the guardband exceeds the guardband-only saving.
	savingBelow := b.PowerSavingPercent()
	b2 := fpga.NewBoard(p, 11)
	b2.SetVCCBRAM(p.VMin)
	if savingBelow <= b2.PowerSavingPercent() {
		t.Fatal("no extra saving below the guardband")
	}
}

func TestAccuracyDegradesGracefullyNotCliff(t *testing.T) {
	m, Xtest, ytest := trainedModel(t)
	q := m.Quantise()
	p := fpga.ZC702()
	b := fpga.NewBoard(p, 12)
	if err := q.StoreToBRAM(b); err != nil {
		t.Fatal(err)
	}
	baseline := q.Accuracy(Xtest, ytest)
	// At the crash edge the fault density peaks; even there the int8 MLP
	// should retain most of its accuracy (graceful degradation).
	b.SetVCCBRAM(p.VCrash)
	deployed, err := LoadFromBRAM(q, b)
	if err != nil {
		t.Fatal(err)
	}
	acc := deployed.Accuracy(Xtest, ytest)
	if acc < baseline-0.25 {
		t.Fatalf("cliff-like degradation: %.3f vs baseline %.3f", acc, baseline)
	}
}

func TestCrashStopsInference(t *testing.T) {
	m, _, _ := trainedModel(t)
	q := m.Quantise()
	p := fpga.ZC702()
	b := fpga.NewBoard(p, 13)
	if err := q.StoreToBRAM(b); err != nil {
		t.Fatal(err)
	}
	b.SetVCCBRAM(p.VCrash - 0.02)
	if _, err := LoadFromBRAM(q, b); err == nil {
		t.Fatal("weights loaded from a crashed board")
	}
}

func TestBlobsShape(t *testing.T) {
	X, y := Blobs(100, 8, 5, 1, 7)
	if len(X) != 100 || len(y) != 100 {
		t.Fatal("wrong sample count")
	}
	for _, x := range X {
		if len(x) != 8 {
			t.Fatal("wrong dimension")
		}
	}
	seen := map[int]bool{}
	for _, c := range y {
		seen[c] = true
	}
	if len(seen) != 5 {
		t.Fatalf("classes present: %d", len(seen))
	}
}

func TestStoreToBRAMTooLarge(t *testing.T) {
	big := &Quantised{In: 1, Hidden: 1, Out: 1,
		W1: make([]int8, 10<<20), W2: []int8{0},
		B1: []float64{0}, B2: []float64{0}}
	b := fpga.NewBoard(fpga.ZC702(), 14) // 0.63 MB of BRAM
	if err := big.StoreToBRAM(b); err == nil {
		t.Fatal("oversized image accepted")
	}
}
