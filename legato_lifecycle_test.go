package legato

// The lifecycle parity witness: one seeded, serialized session that drives
// every lifecycle path (power cap with throttling, hedging, deadline
// shedding, crash and degrade faults, checkpoints) and compares its three
// observable outputs — the event log, the registry snapshot and the merged
// trace — against golden files under testdata/. Run with -update to
// rewrite them after an intended change.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"legato/internal/engine"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/fti"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// lifecyclePlan silently slows the x86 microservers early (only the
// straggler watchdog notices) and crashes one ARM device mid-session, so
// tasks are hedged, retried and restored.
var lifecyclePlan = faults.Plan{
	DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
	DegradeTo:       1.0,
	DegradeSlowdown: 6.0,
	MTBF:            ft.MTBFModel{hw.CPUARM: 1},
	MaxCrashes:      1,
	Seed:            42,
}

// buildLifecycleJob fills a job with four chains of wide tasks (pressing
// on the power cap), a two-core chain pinned to the ARM servers (running
// when the planned crash lands) and a deadline-bearing report task that
// the session sheds.
func buildLifecycleJob(job *Job) error {
	var outs []DataHandle
	for c := 0; c < 4; c++ {
		prev := job.Data(fmt.Sprintf("c%d/in", c), 4096)
		for s := 0; s < 4; s++ {
			next := job.Data(fmt.Sprintf("c%d/s%d", c, s), 4096)
			if err := job.Task(fmt.Sprintf("c%d/stage%d", c, s)).
				Gops(400).Cores(8).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
		outs = append(outs, prev)
	}
	prev := job.Data("arm/in", 4096)
	for s := 0; s < 4; s++ {
		next := job.Data(fmt.Sprintf("arm/s%d", s), 4096)
		if err := job.Task(fmt.Sprintf("arm/stage%d", s)).
			Gops(20).Cores(2).On(hw.CPUARM).In(prev).Out(next).Submit(); err != nil {
			return err
		}
		prev = next
	}
	outs = append(outs, prev)
	return job.Task("report").Gops(40).Cores(1).In(outs...).
		Deadline(8 * time.Second).Submit()
}

// runLifecycleSession runs three checkpointed lifecycle jobs on one
// worker, each awaited before the next is built, under a cap of 35% of the
// cloud fleet's peak draw, with the event log armed. It returns the jobs'
// reports in submission order.
func runLifecycleSession(t *testing.T) (*System, []*Report) {
	t.Helper()
	sys, err := NewSystem(
		WithPlatform(CloudPlatform),
		WithPolicy(MinTime),
		WithWorkers(1),
		WithPowerCap(observedSessionCap(t)*0.35/0.6),
		WithGovernor(PackAndThrottle),
		WithHedging(HedgePolicy{Multiplier: 1.5}),
		WithDeadlineMode(DeadlineShed),
		WithFaults(lifecyclePlan),
		WithEventLog(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var reports []*Report
	for n := 0; n < 3; n++ {
		job, err := sys.NewJob(fmt.Sprintf("life-%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildLifecycleJob(job); err != nil {
			t.Fatal(err)
		}
		if err := job.Checkpoint(2, fti.L1); err != nil {
			t.Fatal(err)
		}
		rep, err := job.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	return sys, reports
}

// formatSnapshot renders a registry snapshot one sorted line per metric,
// values in their shortest exact form.
func formatSnapshot(snap map[string]map[string]float64) string {
	var lines []string
	for scope, metrics := range snap {
		for metric, v := range metrics {
			lines = append(lines, scope+"\t"+metric+"\t"+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// formatSpans renders spans one line each, in trace order.
func formatSpans(spans []trace.Span) string {
	var sb strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%d\t%d\t%s\n", s.Category, s.Resource, s.Name,
			int64(s.Start), int64(s.End), strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
	return sb.String()
}

// golden compares got with testdata/name, rewriting it under -update, and
// reports the first differing line.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, want %d", path, len(gl), len(wl))
	}
}

func TestLifecycleParityGolden(t *testing.T) {
	sys, _ := runLifecycleSession(t)
	defer sys.Close(context.Background())
	log := obs.FormatLog(sys.EventLog())
	for _, k := range []EventKind{
		EvTaskRetried, EvDeviceLost, EvCheckpointCommit, EvHedgeWon,
		EvTaskShed, EvGovernorThrottled, EvPowerRefused,
	} {
		if !strings.Contains(log, k.String()) {
			t.Errorf("the lifecycle session never emits %v", k)
		}
	}
	golden(t, "lifecycle.events", log)
	golden(t, "lifecycle.registry", formatSnapshot(sys.Monitor().Snapshot()))
	golden(t, "lifecycle.spans", formatSpans(sys.Tracer().Spans()))
}

// TestRegistryReplay is the replay witness of the registry and Counts
// folds: folding the logged event stream, job by job, into an empty
// registry rebuilds the live registry's fold-owned counters exactly, and
// into a zero Counts rebuilds each job's Report counters and, summed, the
// session's.
func TestRegistryReplay(t *testing.T) {
	sys, reports := runLifecycleSession(t)
	defer sys.Close(context.Background())
	replay := monitor.NewRegistry()
	folds := make(map[string]*engine.RegistryFold)
	counts := make(map[string]*Counts)
	for _, e := range sys.EventLog() {
		f, ok := folds[e.Job]
		if !ok {
			f = engine.NewRegistryFold(replay, e.Job)
			folds[e.Job] = f
			counts[e.Job] = &Counts{}
		}
		f.Apply(e)
		counts[e.Job].Apply(e)
	}
	var session Counts
	for n, rep := range reports {
		job := fmt.Sprintf("life-%d", n)
		got := counts[job]
		if got == nil || *got != rep.Counts {
			t.Errorf("%s: replayed counts %+v, report %+v", job, got, rep.Counts)
			continue
		}
		session.Add(*got)
	}
	st := sys.Stats()
	if session != st.Counts {
		t.Errorf("replayed session counts %+v, Stats %+v", session, st.Counts)
	}
	if st.HedgesDenied == 0 {
		t.Error("the lifecycle session denies no hedge")
	}
	if got := sys.Monitor().Get("tail", "hedges-denied"); got != float64(st.HedgesDenied) {
		t.Errorf("registry tail/hedges-denied = %v, Stats.HedgesDenied = %d", got, st.HedgesDenied)
	}
	live, got := sys.Monitor().Snapshot(), replay.Snapshot()
	for scope, metrics := range got {
		for metric, v := range metrics {
			if want, ok := live[scope][metric]; !ok || want != v {
				t.Errorf("replayed %s %s = %v, live %v (present %v)", scope, metric, v, want, ok)
			}
		}
	}
	// The engine sets these at job end from the result and the ledgers.
	notFolded := map[string]bool{"makespan-s": true, "energy-total-J": true, "fleet-start-s": true, "draw-W": true}
	for scope, metrics := range live {
		if scope != "tail" && !strings.HasPrefix(scope, "job/") && !strings.HasPrefix(scope, "device/") {
			continue
		}
		for metric, v := range metrics {
			if notFolded[metric] {
				continue
			}
			if r, ok := got[scope][metric]; !ok || r != v {
				t.Errorf("live %s %s = %v, replayed %v (present %v)", scope, metric, v, r, ok)
			}
		}
	}
}
