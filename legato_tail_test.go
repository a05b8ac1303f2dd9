package legato

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
)

// WithHedging end to end on the public API: a fault plan silently slows
// the x86 microservers (capacity untouched), the watchdog hedges onto a
// different class, the counters surface in Report and SessionStats, and
// the tracer carries "hedge" spans. A deadlined low-priority report task
// is shed gracefully under DeadlineShed.
func TestWithHedgingEndToEnd(t *testing.T) {
	sys, err := NewSystem(
		WithPolicy(MinTime),
		WithWorkers(2),
		WithFaults(faults.Plan{
			DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 1e-6},
			DegradeTo:       1.0,
			DegradeSlowdown: 6.0,
			Seed:            3,
		}),
		WithHedging(HedgePolicy{Multiplier: 1.5}),
		WithDeadlineMode(DeadlineShed),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	ctx := context.Background()

	job, err := sys.NewJob("tail")
	if err != nil {
		t.Fatal(err)
	}
	var outs []DataHandle
	for c := 0; c < 2; c++ {
		prev := job.Data(fmt.Sprintf("c%d/in", c), 1024)
		for i := 0; i < 3; i++ {
			next := job.Data(fmt.Sprintf("c%d/d%d", c, i), 1024)
			if err := job.Task(fmt.Sprintf("c%d/t%d", c, i)).
				Gops(400).Cores(8).In(prev).Out(next).Submit(); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
		outs = append(outs, prev)
	}
	// Behind ~3 stages of degraded work with a 4 s budget: shed, and the
	// job still completes.
	if err := job.Task("report").Gops(10).Cores(1).In(outs...).
		Deadline(4 * time.Second).Submit(); err != nil {
		t.Fatal(err)
	}

	rep, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StragglersDetected == 0 || rep.HedgesLaunched == 0 || rep.HedgesWon == 0 {
		t.Fatalf("report stragglers=%d launched=%d won=%d, want the tail path exercised",
			rep.StragglersDetected, rep.HedgesLaunched, rep.HedgesWon)
	}
	if rep.HedgeWastedJ <= 0 {
		t.Fatalf("report hedge waste = %v J, want > 0", rep.HedgeWastedJ)
	}
	if rep.TasksShed != 1 || rep.DeadlineMisses == 0 {
		t.Fatalf("report shed=%d misses=%d, want the report task shed", rep.TasksShed, rep.DeadlineMisses)
	}
	var hedged, shed int
	for _, rec := range rep.Records {
		if rec.Hedged {
			hedged++
		}
		if rec.Shed {
			shed++
		}
	}
	if hedged == 0 || shed != 1 {
		t.Fatalf("records: %d hedged, %d shed, want >0 and 1", hedged, shed)
	}

	st := sys.Stats()
	if st.StragglersDetected != rep.StragglersDetected || st.HedgesWon != rep.HedgesWon ||
		st.HedgeWastedJ != rep.HedgeWastedJ || st.TasksShed != rep.TasksShed {
		t.Fatalf("session stats %+v disagree with the sole job's report", st)
	}
	var hedgeSpans, deadlineSpans int
	for _, sp := range sys.Tracer().Spans() {
		switch sp.Category {
		case "hedge":
			hedgeSpans++
		case "deadline":
			deadlineSpans++
		}
	}
	if hedgeSpans == 0 {
		t.Fatal("tracer has no hedge spans")
	}
	if deadlineSpans == 0 {
		t.Fatal("tracer has no deadline spans")
	}
}

// TaskBuilder specs are validated at Submit with the typed sentinel.
func TestTaskBuilderValidation(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("specs")
	if err != nil {
		t.Fatal(err)
	}
	for name, submit := range map[string]func() error{
		"zero gops":         job.Task("g0").Gops(0).Submit,
		"negative gops":     job.Task("g1").Gops(-3).Submit,
		"negative cores":    job.Task("c0").Gops(1).Cores(-1).Submit,
		"negative retry":    job.Task("r0").Gops(1).Retry(-1).Submit,
		"zero deadline":     job.Task("d0").Gops(1).Deadline(0).Submit,
		"negative deadline": job.Task("d1").Gops(1).Deadline(-time.Second).Submit,
	} {
		if err := submit(); !errors.Is(err, ErrInvalidTask) {
			t.Errorf("%s: err = %v, want ErrInvalidTask", name, err)
		}
	}
	// A valid spec still passes after the rejected ones.
	if err := job.Task("ok").Gops(1).Deadline(time.Minute).Submit(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
}
