package taskrt

import (
	"errors"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
)

// tailDevices returns the tail-test pair: "fast" is the MinTime favourite
// (Xeon, 25 Gops/core — a 100-Gop task takes 4 s), "backup" a slower ARM
// server of a different class (18 Gops/core, 5.56 s). The straggler
// watchdog at 1.5× fires at 6 s, so a hedge on backup completes at
// ~11.56 s — well before a 4×-degraded primary's ~16 s.
func tailDevices(eng *sim.Engine) []*hw.Device {
	return []*hw.Device{
		{ID: "fast", Spec: hw.XeonD()},
		{ID: "backup", Spec: hw.ARMv8Server()},
	}
}

// A silent mid-flight slowdown of the favourite device trips the watchdog;
// the hedge on the other class wins, the task's record commits the
// replica's device with the full straggle-inclusive latency, and the
// cancelled primary's burned energy is accounted as hedge waste.
func TestStragglerHedgeWins(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.SetHedging(HedgePolicy{Multiplier: 1.5})
	rt.ScheduleFault(time.Millisecond, func() { rt.DegradeDevice("fast", 4) })
	if err := rt.Submit(Task{Name: "work", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StragglersDetected != 1 || res.HedgesLaunched != 1 || res.HedgesWon != 1 {
		t.Fatalf("stragglers=%d launched=%d won=%d, want 1/1/1",
			res.StragglersDetected, res.HedgesLaunched, res.HedgesWon)
	}
	if res.HedgeWastedJ <= 0 {
		t.Fatalf("hedge waste = %v J, want > 0 (the cancelled primary burned energy)", res.HedgeWastedJ)
	}
	rec := res.Records[0]
	if rec.Device != "backup" || !rec.Hedged {
		t.Fatalf("record device=%s hedged=%v, want the winning replica on backup", rec.Device, rec.Hedged)
	}
	if rec.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (a hedge is not a retry)", rec.Attempts)
	}
	lat := rec.End - rec.Start
	if lat < 11*time.Second || lat > 12*time.Second {
		t.Fatalf("latency = %v, want ~11.56 s (6 s straggle window + 5.56 s replica)", lat)
	}
}

// Without a hedging policy the watchdog never arms: the degraded device
// runs the task to its stretched completion, unnoticed.
func TestNoHedgingNoWatchdog(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.ScheduleFault(time.Millisecond, func() { rt.DegradeDevice("fast", 4) })
	if err := rt.Submit(Task{Name: "work", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StragglersDetected != 0 || res.HedgesLaunched != 0 {
		t.Fatalf("stragglers=%d launched=%d, want 0/0 without a policy",
			res.StragglersDetected, res.HedgesLaunched)
	}
	rec := res.Records[0]
	if rec.Device != "fast" || rec.Hedged {
		t.Fatalf("record device=%s hedged=%v, want the degraded primary", rec.Device, rec.Hedged)
	}
	if lat := rec.End - rec.Start; lat < 15*time.Second {
		t.Fatalf("latency = %v, want ~16 s (4x slowdown ran to completion)", lat)
	}
}

// A mild slowdown lets the primary beat its own hedge: first completion
// wins, the replica is cancelled deterministically, and its burned energy
// is the only cost.
func TestPrimaryBeatsHedge(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.SetHedging(HedgePolicy{Multiplier: 1.5})
	// 1.6x: finishes at ~6.4 s, just after the 6 s watchdog; the backup
	// replica would need until ~11.56 s.
	rt.ScheduleFault(time.Millisecond, func() { rt.DegradeDevice("fast", 1.6) })
	if err := rt.Submit(Task{Name: "work", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StragglersDetected != 1 || res.HedgesLaunched != 1 || res.HedgesWon != 0 {
		t.Fatalf("stragglers=%d launched=%d won=%d, want 1/1/0",
			res.StragglersDetected, res.HedgesLaunched, res.HedgesWon)
	}
	if res.HedgeWastedJ <= 0 {
		t.Fatalf("hedge waste = %v J, want > 0 (the cancelled replica ran ~0.4 s)", res.HedgeWastedJ)
	}
	rec := res.Records[0]
	if rec.Device != "fast" || rec.Hedged {
		t.Fatalf("record device=%s hedged=%v, want the surviving primary", rec.Device, rec.Hedged)
	}
}

// Losing the primary's device while a hedge is in flight promotes the
// replica to sole execution — no retry, no extra attempt.
func TestHedgePromotedOnPrimaryDeviceLoss(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.SetHedging(HedgePolicy{Multiplier: 1.5})
	rt.ScheduleFault(time.Millisecond, func() { rt.DegradeDevice("fast", 4) })
	// Watchdog fires at 6 s; kill the straggling primary's device at 8 s.
	rt.ScheduleFault(8*time.Second, func() {
		revoked, _ := rt.FailDevice("fast")
		if revoked != 1 {
			t.Errorf("revoked = %d, want 1 (the straggling primary)", revoked)
		}
	})
	if err := rt.Submit(Task{Name: "work", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRetried != 0 {
		t.Fatalf("retries = %d, want 0 (promotion, not re-placement)", res.TasksRetried)
	}
	rec := res.Records[0]
	if rec.Device != "backup" || !rec.Hedged || rec.Attempts != 1 {
		t.Fatalf("record device=%s hedged=%v attempts=%d, want the promoted replica",
			rec.Device, rec.Hedged, rec.Attempts)
	}
	if res.HedgesWon != 0 {
		t.Fatalf("hedges won = %d, want 0 (promotion is not a race win)", res.HedgesWon)
	}
}

// A hedge whose watt draw does not fit under the power cap is denied and
// re-armed, never force-admitted: the cap invariant outranks tail rescue.
func TestHedgeDeniedByPowerCap(t *testing.T) {
	eng := sim.NewEngine()
	devs := tailDevices(eng)
	// Idle floor 31 W; the primary's 1-core draw on fast is ~4.06 W. A
	// 36 W cap admits the primary (35.06 W) but not the backup replica's
	// extra 2.25 W.
	rt := New(eng, devs, MinTime, power.NewLedger(36, devs, power.RaceToIdle))
	rt.SetHedging(HedgePolicy{Multiplier: 1.5})
	rt.ScheduleFault(time.Millisecond, func() { rt.DegradeDevice("fast", 4) })
	if err := rt.Submit(Task{Name: "work", Gops: 100, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HedgesLaunched != 0 || res.HedgesWon != 0 {
		t.Fatalf("launched=%d won=%d, want no replica under the tight cap",
			res.HedgesLaunched, res.HedgesWon)
	}
	if res.HedgesDenied == 0 {
		t.Fatal("hedges denied = 0, want the watt-ledger refusals counted")
	}
	if rec := res.Records[0]; rec.Device != "fast" || rec.Hedged {
		t.Fatalf("record device=%s hedged=%v, want the degraded primary", rec.Device, rec.Hedged)
	}
}

// Strict deadline mode fails the job with the typed sentinel when a task
// is still unfinished at its (virtual-clock) deadline.
func TestDeadlineStrict(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	if err := rt.Submit(Task{Name: "late", Gops: 100, Cores: 1, Deadline: time.Second}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Run()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// Shed mode drops an unstarted low-priority task at its deadline: the job
// completes, the shed record carries no execution, and successors are
// released so the graph drains.
func TestDeadlineShedUnstartedTask(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.SetDeadlineMode(DeadlineShed)
	d := rt.Data("d", 1<<10)
	out := rt.Data("out", 1<<10)
	if err := rt.Submit(Task{Name: "long", Gops: 100, Cores: 1, Out: []*Data{d}}); err != nil {
		t.Fatal(err)
	}
	// Blocked behind 4 s of work with a 1 s deadline: shed at 1 s.
	if err := rt.Submit(Task{Name: "optional", Gops: 10, Cores: 1, Deadline: time.Second,
		In: []*Data{d}, Out: []*Data{out}}); err != nil {
		t.Fatal(err)
	}
	// A successor of the shed task must still run.
	if err := rt.Submit(Task{Name: "tail", Gops: 10, Cores: 1, In: []*Data{out}}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 1 || res.TasksShed != 1 {
		t.Fatalf("misses=%d shed=%d, want 1/1", res.DeadlineMisses, res.TasksShed)
	}
	var shed, tail *Record
	for i := range res.Records {
		switch res.Records[i].Name {
		case "optional":
			shed = &res.Records[i]
		case "tail":
			tail = &res.Records[i]
		}
	}
	if shed == nil || !shed.Shed || !shed.MissedDeadline || shed.Device != "" {
		t.Fatalf("shed record = %+v, want Shed+MissedDeadline with no device", shed)
	}
	if shed.End != sim.Time(time.Second) {
		t.Fatalf("shed at %v, want the 1 s deadline instant", shed.End)
	}
	if tail == nil || tail.Shed || tail.End <= shed.End {
		t.Fatalf("successor record = %+v, want executed after the shed", tail)
	}
}

// Shed mode best-efforts a task that already started (or carries
// priority): the deadline miss is flagged on the record but the execution
// runs to completion.
func TestDeadlineShedBestEffortsStartedTask(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	rt.SetDeadlineMode(DeadlineShed)
	if err := rt.Submit(Task{Name: "running", Gops: 100, Cores: 1, Deadline: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 1 || res.TasksShed != 0 {
		t.Fatalf("misses=%d shed=%d, want 1 miss and no shed", res.DeadlineMisses, res.TasksShed)
	}
	rec := res.Records[0]
	if !rec.MissedDeadline || rec.Shed {
		t.Fatalf("record = %+v, want MissedDeadline on a completed execution", rec)
	}
	if rec.End != sim.Time(4*time.Second) {
		t.Fatalf("End = %v, want the full 4 s execution", rec.End)
	}
}

// Submit rejects malformed task specs with the typed sentinel.
func TestSubmitValidatesTaskSpec(t *testing.T) {
	eng := sim.NewEngine()
	rt := standalone(eng, tailDevices(eng), MinTime)
	for _, tc := range []struct {
		name string
		task Task
	}{
		{"negative gops", Task{Name: "g", Gops: -1}},
		{"negative cores", Task{Name: "c", Gops: 1, Cores: -2}},
		{"negative retry", Task{Name: "r", Gops: 1, Retry: -1}},
		{"negative deadline", Task{Name: "d", Gops: 1, Deadline: -time.Second}},
	} {
		if err := rt.Submit(tc.task); !errors.Is(err, ErrInvalidTask) {
			t.Errorf("%s: err = %v, want ErrInvalidTask", tc.name, err)
		}
	}
}
