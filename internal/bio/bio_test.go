package bio

import (
	"strings"
	"testing"

	"legato/internal/hw"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

func TestKnownAlignment(t *testing.T) {
	// Classic textbook case: TGTTACGG vs GGTTGACTA with +3/-3/-2 has
	// optimal local alignment GTT-AC / GTTGAC, score 13.
	s := Scoring{Match: 3, Mismatch: -3, Gap: -2}
	al := SmithWaterman("TGTTACGG", "GGTTGACTA", s)
	if al.Score != 13 {
		t.Fatalf("score: got %d want 13", al.Score)
	}
	if al.AlignedA != "GTT-AC" || al.AlignedB != "GTTGAC" {
		t.Fatalf("alignment: %q / %q", al.AlignedA, al.AlignedB)
	}
}

func TestIdenticalSequences(t *testing.T) {
	s := DefaultScoring()
	al := SmithWaterman("ACGTACGT", "ACGTACGT", s)
	if al.Score != 16 { // 8 matches × 2
		t.Fatalf("self-alignment score: %d", al.Score)
	}
	if al.AlignedA != "ACGTACGT" || strings.Contains(al.AlignedA, "-") {
		t.Fatalf("self-alignment: %q", al.AlignedA)
	}
}

func TestNoCommonSubsequence(t *testing.T) {
	s := DefaultScoring()
	al := SmithWaterman("AAAA", "TTTT", s)
	if al.Score != 0 {
		t.Fatalf("disjoint alphabet score: %d", al.Score)
	}
}

func TestEmptySequence(t *testing.T) {
	al := SmithWaterman("", "ACGT", DefaultScoring())
	if al.Score != 0 || al.AlignedA != "" {
		t.Fatalf("empty-sequence alignment: %+v", al)
	}
}

func devices() []*hw.Device {
	return []*hw.Device{
		{ID: "cpu0", Spec: hw.XeonD()},
		{ID: "gpu0", Spec: hw.JetsonTX2()},
	}
}

func TestWavefrontMatchesSerial(t *testing.T) {
	a := RandomDNA(200, 1)
	b := RandomDNA(180, 2)
	s := DefaultScoring()
	ref := SmithWaterman(a, b, s)

	eng := sim.NewEngine()
	res, err := SmithWatermanWavefront(eng, devices(), taskrt.MinTime, a, b, s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alignment.Score != ref.Score {
		t.Fatalf("wavefront score %d != serial %d", res.Alignment.Score, ref.Score)
	}
	if res.Alignment.AlignedA != ref.AlignedA || res.Alignment.AlignedB != ref.AlignedB {
		t.Fatalf("wavefront alignment differs:\n%q/%q\nvs\n%q/%q",
			res.Alignment.AlignedA, res.Alignment.AlignedB, ref.AlignedA, ref.AlignedB)
	}
	wantTiles := ((200 + 31) / 32) * ((180 + 31) / 32)
	if res.Tiles != wantTiles {
		t.Fatalf("tiles: got %d want %d", res.Tiles, wantTiles)
	}
	if res.Makespan <= 0 || res.EnergyJ <= 0 {
		t.Fatal("no platform cost accounted")
	}
}

func TestWavefrontTileValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := SmithWatermanWavefront(eng, devices(), taskrt.MinTime, "ACGT", "ACGT", DefaultScoring(), 0); err == nil {
		t.Fatal("zero tile accepted")
	}
}

func TestWavefrontParallelismHelps(t *testing.T) {
	a := RandomDNA(256, 3)
	b := RandomDNA(256, 4)
	s := DefaultScoring()

	run := func(devs []*hw.Device) sim.Time {
		res, err := SmithWatermanWavefront(sim.NewEngine(), devs, taskrt.MinTime, a, b, s, 32)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	one := run([]*hw.Device{{ID: "c0", Spec: oneCore()}})
	four := run([]*hw.Device{
		{ID: "c0", Spec: oneCore()}, {ID: "c1", Spec: oneCore()},
		{ID: "c2", Spec: oneCore()}, {ID: "c3", Spec: oneCore()},
	})
	if four >= one {
		t.Fatalf("wavefront gained nothing from 4 workers: %v vs %v", four, one)
	}
}

func oneCore() hw.Spec {
	s := hw.ApalisARM()
	s.Cores = 1
	return s
}

func TestRandomDNADeterministic(t *testing.T) {
	if RandomDNA(64, 7) != RandomDNA(64, 7) {
		t.Fatal("same seed differs")
	}
	if RandomDNA(64, 7) == RandomDNA(64, 8) {
		t.Fatal("different seeds agree")
	}
	for _, c := range RandomDNA(100, 9) {
		if !strings.ContainsRune("ACGT", c) {
			t.Fatalf("bad base %q", c)
		}
	}
}
