package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"legato/internal/obs"
	"legato/internal/sim"
	"legato/internal/trace"
)

// writeDump writes a two-task session dump: job/b waits and runs longer
// than job/a, so it is the slowest task.
func writeDump(t *testing.T, dir string) string {
	t.Helper()
	sec := func(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }
	d := &obs.SessionDump{
		Name: "tiny",
		Spans: []trace.Span{
			{Name: "job/a", Category: "queue", Resource: "job/a"},
			{Name: "job/b", Category: "queue", Resource: "job/b"},
			{Name: "job/a", Category: "task", Resource: "dev0", Start: 0, End: sec(1)},
			{Name: "fleet-draw", Category: "power", Resource: "fleet", Start: sec(1), End: sec(1), Value: 40},
			{Name: "job/b", Category: "task", Resource: "dev1", Start: sec(1), End: sec(4)},
		},
		Counters: map[string]float64{"jobs": 1},
		Metrics: map[string]map[string]float64{
			"device/dev0": {"energy-J": 1000},
			"device/dev1": {"energy-J": 2000},
			"device/dev2": {"energy-J": 3000},
			"job/job":     {"tasks-completed": 2},
		},
		Events: []obs.Event{
			{Seq: 1, Kind: obs.TaskQueued, Job: "job", Task: "job/a"},
			{Seq: 2, At: sec(4), Kind: obs.TaskCompleted, Job: "job", Task: "job/b", Device: "dev1"},
		},
	}
	path := filepath.Join(dir, "session.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunConverts(t *testing.T) {
	dir := t.TempDir()
	in := writeDump(t, dir)
	out := func(name string) string { return filepath.Join(dir, name) }
	var log bytes.Buffer
	err := run([]string{"-in", in, "-chrome", out("trace.json"), "-paraver", out("trace.prv"),
		"-prom", out("metrics.prom"), "-events", out("events.log")}, &log)
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		b, err := os.ReadFile(out(name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "wrote "+out(name)+" (") {
			t.Fatalf("no report of %s in:\n%s", name, log.String())
		}
		return string(b)
	}
	if chrome := read("trace.json"); !json.Valid([]byte(chrome)) {
		t.Fatalf("Chrome trace is not JSON:\n%s", chrome)
	}
	if prv := read("trace.prv"); !strings.HasPrefix(prv, "#Paraver (legato trace)\n") || !strings.Contains(prv, ":task:job/b\n") {
		t.Fatalf("Paraver trace:\n%s", prv)
	}
	if prom := read("metrics.prom"); !strings.Contains(prom, `name="dev2"`) {
		t.Fatalf("Prometheus exposition has no dev2 sample:\n%s", prom)
	}
	if events := read("events.log"); strings.Count(events, "\n") != 2 || !strings.Contains(events, "job/b") {
		t.Fatalf("event log:\n%s", events)
	}
}

func TestRunSummary(t *testing.T) {
	in := writeDump(t, t.TempDir())
	var w bytes.Buffer
	if err := run([]string{"-in", in, "-top", "1"}, &w); err != nil {
		t.Fatal(err)
	}
	sum := w.String()
	_, table, _ := strings.Cut(sum, "slowest ")
	table, _, _ = strings.Cut(table, "\n\n")
	if !strings.HasPrefix(table, "1 tasks (of 2)") || !strings.Contains(table, "job/b") || strings.Contains(table, "job/a") {
		t.Fatalf("summary does not name job/b as the slowest task:\n%s", sum)
	}
	_, energy, _ := strings.Cut(sum, "energy attribution (6000 J dynamic total):\n")
	// dev2 used the most, so it leads the attribution.
	if i, j := strings.Index(energy, "  dev2 "), strings.Index(energy, "  dev0 "); i < 0 || j < i {
		t.Fatalf("energy attribution not sorted by energy:\n%s", sum)
	}
}

func TestRunErrors(t *testing.T) {
	var w bytes.Buffer
	if err := run(nil, &w); !errors.Is(err, errUsage) {
		t.Fatalf("no -in: err = %v, want usage", err)
	}
	if err := run([]string{"-bogus"}, &w); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want usage", err)
	}
	err := run([]string{"-in", filepath.Join(t.TempDir(), "missing.json")}, &w)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("missing file: err = %v, want an open error", err)
	}
}
