package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload with sessions of `jobs` jobs and the shortest
// timed phase through the path the command takes after parsing its flags,
// and returns its metric lines by name, with the summary.
func tinyRun(t *testing.T, workload string, seed int64, jobs int, trace bool) (map[string][2]string, map[string]any) {
	t.Helper()
	var out, errOut bytes.Buffer
	cfg := config{w: workloadByName(workload), seed: seed, trace: trace, jobs: jobs, outDir: t.TempDir()}
	if code := execute(cfg, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", workload, err)
	}
	if summary["correct"] != true || summary["failed"] != 0.0 {
		t.Errorf("%s: summary %v", workload, summary)
	}
	metrics := map[string][2]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != workload {
			t.Fatalf("%s: malformed metric line %q", workload, l)
		}
		metrics[f[1]] = [2]string{f[2], f[3]}
	}
	return metrics, summary
}

func checkPrinted(t *testing.T, workload string, want []struct{ Name, Unit string }, got map[string][2]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		if v, ok := got[m.Name]; !ok || v[1] != m.Unit {
			t.Errorf("%s: metric %s printed as %v, want unit %s", workload, m.Name, v, m.Unit)
		}
	}
}

// TestEveryWorkloadTiny runs sessions of one job more than the workload
// keeps in flight, so the closed loop waits for its oldest job once.
func TestEveryWorkloadTiny(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		got, _ := tinyRun(t, w.Name, 1, wl.workers+1, false)
		checkPrinted(t, w.Name, s.EndToEnd, got)
		got, _ = tinyRun(t, w.Name, 1, wl.workers+1, true)
		checkPrinted(t, w.Name, s.PerLayer, got)
	}
}

// TestSerialFleetOutputIsDeterministic: on the serial workloads the same
// seed gives bit-identical fleet-time output.
func TestSerialFleetOutputIsDeterministic(t *testing.T) {
	for _, w := range []string{"wide-dag", "power-faults"} {
		a, _ := tinyRun(t, w, 3, 1, false)
		b, _ := tinyRun(t, w, 3, 1, false)
		for _, m := range []string{"fleet_makespan_s", "fleet_energy_j", "fleet_task_p99_s"} {
			if a[m] != b[m] {
				t.Errorf("%s %s: %v then %v", w, m, a[m], b[m])
			}
		}
	}
}

func TestSeedDeterminesGraphs(t *testing.T) {
	for _, w := range workloads {
		a, b := genJobs(w, 1, 3), genJobs(w, 1, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different graphs", w.name)
		}
		if c := genJobs(w, 2, 3); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same graphs", w.name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "wide-dag", "-trace", "2"},
		{"-workload", "wide-dag", "extra"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}
