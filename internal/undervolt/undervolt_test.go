package undervolt

import (
	"math"
	"testing"

	"legato/internal/fpga"
)

func TestClassify(t *testing.T) {
	p := fpga.VC707()
	cases := []struct {
		v    float64
		want Region
	}{
		{1.0, Guardband},
		{p.VMin, Guardband},
		{p.VMin - 0.001, Critical},
		{p.VCrash, Critical},
		{p.VCrash - 0.001, Crash},
	}
	for _, c := range cases {
		if got := Classify(p, c.v); got != c.want {
			t.Fatalf("classify %.3f: got %v want %v", c.v, got, c.want)
		}
	}
}

func TestRegionString(t *testing.T) {
	for _, r := range []Region{Guardband, Critical, Crash} {
		if r.String() == "" {
			t.Fatal("empty region name")
		}
	}
}

func TestSweepZC702(t *testing.T) {
	p := fpga.ZC702()
	b := fpga.NewBoard(p, 1)
	s, err := Run(b, p.VNom, 0.50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) == 0 {
		t.Fatal("empty sweep")
	}
	// The sweep must terminate in a crash point.
	last := s.Points[len(s.Points)-1]
	if !last.Crashed {
		t.Fatalf("sweep did not reach crash: last point %+v", last)
	}
	// Observed Vmin within a step of the profile's value.
	if math.Abs(s.VMinObserved-p.VMin) > 0.011 {
		t.Fatalf("observed Vmin %.3f too far from published %.3f", s.VMinObserved, p.VMin)
	}
	// Observed Vcrash at or one step below the published value.
	if s.VCrashObserved > p.VCrash || s.VCrashObserved < p.VCrash-0.011 {
		t.Fatalf("observed Vcrash %.3f vs published %.3f", s.VCrashObserved, p.VCrash)
	}
}

func TestSweepGuardbandFaultFree(t *testing.T) {
	p := fpga.KC705B()
	b := fpga.NewBoard(p, 2)
	s, err := Run(b, p.VNom, 0.50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range s.Points {
		if pt.Region == Guardband && pt.Faults != 0 {
			t.Fatalf("faults inside guardband at %.3f V: %d", pt.Voltage, pt.Faults)
		}
		if pt.Region == Critical && !pt.Crashed && pt.Voltage < p.VMin-0.011 && pt.Faults == 0 {
			t.Fatalf("no faults deep in critical region at %.3f V", pt.Voltage)
		}
	}
}

func TestVcrashFaultRates(t *testing.T) {
	// Paper Sec. III-B: fault rate at Vcrash is 652 (VC707), 153 (ZC702),
	// 254 (KC705-A), 60 (KC705-B) faults/Mbit.
	want := map[string]float64{
		"VC707": 652, "ZC702": 153, "KC705-A": 254, "KC705-B": 60,
	}
	sweeps, err := RunAll(7, 0.45, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 4 {
		t.Fatalf("expected 4 boards, got %d", len(sweeps))
	}
	for _, s := range sweeps {
		w, ok := want[s.Board]
		if !ok {
			t.Fatalf("unexpected board %q", s.Board)
		}
		got := s.FaultsAtCrash()
		if math.Abs(got-w)/w > 0.05 {
			t.Fatalf("%s: faults at crash %.1f/Mbit, paper reports %.0f", s.Board, got, w)
		}
	}
}

func TestPowerSavingOver90Percent(t *testing.T) {
	p := fpga.VC707()
	b := fpga.NewBoard(p, 3)
	s, err := Run(b, p.VNom, 0.50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxSaving() <= 90 {
		t.Fatalf("max power saving %.1f%%, paper reports >90%%", s.MaxSaving())
	}
}

func TestPowerMonotoneInSweep(t *testing.T) {
	p := fpga.KC705A()
	b := fpga.NewBoard(p, 4)
	s, err := Run(b, p.VNom, 0.50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, pt := range s.Points {
		if pt.Crashed {
			break
		}
		if pt.RailWatts > prev {
			t.Fatalf("rail power increased during undervolting at %.3f V", pt.Voltage)
		}
		prev = pt.RailWatts
	}
}

func TestSweepArgumentValidation(t *testing.T) {
	b := fpga.NewBoard(fpga.ZC702(), 6)
	if _, err := Run(b, 1.0, 0.5, 0); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := Run(b, 0.5, 1.0, 0.01); err == nil {
		t.Fatal("ascending sweep accepted")
	}
}
