package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"legato/internal/taskrt.(*Runtime).dispatch", "legato/internal/engine.(*Engine).worker"}, "taskrt"},
		{[]string{"runtime.mallocgc", "legato/internal/engine.(*Fleet).Capacity", "legato/internal/taskrt.(*Runtime).dispatch"}, "engine"},
		{[]string{"runtime.memmove", "legato.(*Job).submitLocked", "legato.(*TaskBuilder).Submit", "main.(*jobSpec).build"}, "legato"},
		{[]string{"legato/internal/obs.(*Bus).Publish.func1", "legato/internal/engine.(*Engine).wireBus.func1"}, "obs"},
		{[]string{"legato/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"sort.Slice", "legato/internal/trace.(*Tracer).Merge"}, "trace"},
		{[]string{"legato/internal/power.(*Ledger).OperatingPoint"}, "power"},
		{[]string{"legato/internal/monitor.(*Registry).Add"}, "monitor"},
		{[]string{"legato/internal/faults.(*Injector).Crash"}, "faults"},
		{[]string{"crypto/aes.(*aesCipher).Encrypt", "legato/internal/secure.(*Enclave).Seal"}, "secure"},
		{[]string{"legato/internal/hw.NewDevice", "legato.buildPlatform"}, "hw"},
		{[]string{"legato/internal/energy.(*Meter).Energy", "legato.(*Job).buildReport"}, "other"},
		{[]string{"legato/internal/mathx.Sum[go.shape.float64]"}, "other"},
		{[]string{"sync.(*Mutex).Lock", "main.(*probe).observe", "legato/internal/obs.(*Bus).Publish"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "other"},
		{nil, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestLayerSharesOfRealProfile profiles a few plain many-jobs sessions and
// checks that their layer shares sum to one.
func TestLayerSharesOfRealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	r := &runner{cfg: config{w: workloadByName("many-jobs"), trace: true}, ctx: context.Background()}
	specs := genJobs(r.cfg.w, 1, 50)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		if _, err := r.runSession(specs, nil, false); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	plain := 0
	for _, s := range p.samples {
		if p.label(s, "session") == "plain" {
			plain++
		}
	}
	if plain == 0 {
		t.Fatalf("none of the profile's %d samples is labelled session=plain", len(p.samples))
	}
	shares, err := layerShares(prof.Bytes(), "plain")
	if err != nil {
		t.Fatal(err)
	}
	total, legato := 0.0, 0.0
	for l, s := range shares {
		total += s
		if l != "gc" && l != "other" {
			legato += s
		}
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01: %v", total, shares)
	}
	if legato == 0 {
		t.Errorf("no sample was charged to a legato layer: %v", shares)
	}
}
