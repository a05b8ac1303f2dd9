// legato-trace inspects and converts session dumps written by
// legato.System.ExportSession.
//
// Usage:
//
//	legato-trace -in session.json [flags]
//
// With only -in it prints a human summary of the run: overview, the
// top-N slowest task timelines (queue wait / execution / retries / hedge
// overlap), per-device utilization against the session makespan, hedge
// waste, and per-device energy attribution. Conversion flags write
// derived artifacts instead:
//
//	-chrome out.json   Chrome trace_event JSON (chrome://tracing, Perfetto)
//	-paraver out.prv   Paraver-style text trace
//	-prom out.prom     Prometheus text exposition of the metric registry
//	-events out.log    ordered event log, one line per event
//	-top N             rows in the slowest-task table (default 10)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"legato/internal/obs"
	"legato/internal/sim"
	"legato/internal/trace"
)

// errUsage reports a command line run cannot act on; the usage is printed.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run executes one legato-trace command line, writing its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("legato-trace", flag.ContinueOnError)
	in := fs.String("in", "", "session dump written by ExportSession (required)")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this path")
	paraver := fs.String("paraver", "", "write Paraver text trace to this path")
	prom := fs.String("prom", "", "write Prometheus exposition to this path")
	events := fs.String("events", "", "write the ordered event log to this path")
	top := fs.Int("top", 10, "rows in the slowest-task table")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *in == "" {
		fs.Usage()
		return errUsage
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	dump, err := obs.DecodeSession(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}

	converted := false
	if *chrome != "" {
		b, err := obs.ChromeTrace(dump.Spans, dump.Counters)
		if err != nil {
			return err
		}
		if err := writeOut(w, *chrome, string(b)); err != nil {
			return err
		}
		converted = true
	}
	if *paraver != "" {
		if err := writeOut(w, *paraver, trace.ParaverText(dump.Spans, dump.Counters)); err != nil {
			return err
		}
		converted = true
	}
	if *prom != "" {
		if err := writeOut(w, *prom, obs.PrometheusText(dump.Metrics)); err != nil {
			return err
		}
		converted = true
	}
	if *events != "" {
		if err := writeOut(w, *events, obs.FormatLog(dump.Events)); err != nil {
			return err
		}
		converted = true
	}
	if !converted {
		summary(w, dump, *top)
	}
	return nil
}

// writeOut writes one artifact, reporting the destination and size on w.
func writeOut(w io.Writer, path, content string) error {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes)\n", path, len(content))
	return nil
}

// summary prints the human-facing digest of one session dump.
func summary(w io.Writer, dump *obs.SessionDump, top int) {
	busy, makespan := obs.DeviceUtilization(dump.Spans)
	fmt.Fprintf(w, "session %q: %d spans, %d events, %d metric scopes, makespan %v\n",
		dump.Name, len(dump.Spans), len(dump.Events), len(dump.Metrics), makespan)

	tls := obs.Timelines(dump.Spans)
	if len(tls) > 0 {
		fmt.Fprintf(w, "\nslowest %d tasks (of %d):\n", min(top, len(tls)), len(tls))
		fmt.Fprint(w, obs.TimelineTable(obs.TopSlowest(tls, top)))
	}

	if len(busy) > 0 && makespan > 0 {
		fmt.Fprintf(w, "\ndevice utilization over %v:\n", makespan)
		devs := make([]string, 0, len(busy))
		for d := range busy {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		for _, d := range devs {
			fmt.Fprintf(w, "  %-10s busy %-14v %5.1f%%\n", d, busy[d],
				100*sim.ToSeconds(busy[d])/sim.ToSeconds(makespan))
		}
	}

	if tail, ok := dump.Metrics["tail"]; ok {
		fmt.Fprintf(w, "\ntail behaviour: %.0f hedges launched, %.0f won, %.0f J wasted, %.0f tasks shed\n",
			tail["hedges-launched"], tail["hedges-won"], tail["hedge-wasted-J"], tail["tasks-shed"])
	}

	type devEnergy struct {
		dev string
		j   float64
	}
	var des []devEnergy
	for scope, metrics := range dump.Metrics {
		if dev, ok := strings.CutPrefix(scope, "device/"); ok && metrics["energy-J"] > 0 {
			des = append(des, devEnergy{dev, metrics["energy-J"]})
		}
	}
	// Sum in sorted order, so the total does not depend on map order.
	sort.Slice(des, func(i, j int) bool {
		if des[i].j != des[j].j {
			return des[i].j > des[j].j
		}
		return des[i].dev < des[j].dev
	})
	var totalJ float64
	for _, de := range des {
		totalJ += de.j
	}
	if totalJ > 0 {
		fmt.Fprintf(w, "\nenergy attribution (%.0f J dynamic total):\n", totalJ)
		for _, de := range des {
			fmt.Fprintf(w, "  %-10s %10.0f J  %5.1f%%\n", de.dev, de.j, 100*de.j/totalJ)
		}
	}
}
