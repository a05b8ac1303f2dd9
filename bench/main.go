// Command bench is the repository benchmark. It drives the system only
// through the public legato API, in closed loops of sessions over four
// workloads, and reports host-time and fleet-time metrics end to end; with
// -trace 1 it alternates plain and probed sessions and reports per-layer
// metrics instead. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
//
// Every metric prints as "<workload> <metric> <value> <unit>", and the last
// line of a single-workload run is a JSON summary. A failed correctness
// check exits with status 1. A traced run writes its spans and CPU profile
// to bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: usage: -workload <name|all> -seed <n> -seconds <s> -trace <0|1>")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: filepath.Join("bench", "out")}
	return execute(cfg, stdout, stderr)
}

// execute runs one workload, prints its metrics and summary, and returns the
// exit status.
func execute(cfg config, stdout, stderr io.Writer) int {
	w := cfg.w
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	bad := checkRun(w, res)
	for _, b := range bad {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, b)
	}
	out := endToEnd(res)
	if cfg.trace {
		out = perLayer(res)
	}
	t := sum(append(append([]*session{res.fleet}, res.plain...), res.traced...))
	if err := report(stdout, w.name, len(bad) == 0, t.jobs, t.failed, out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(bad) > 0 {
		return 1
	}
	return 0
}

// report prints one line per metric, then the JSON summary line.
func report(out io.Writer, workload string, correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(out, "%s %s %s %s\n", workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		summary.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, so each
// workload's memory numbers are its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
