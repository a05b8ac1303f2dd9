// Hedging: tail-tolerant execution under silent device degradation. A
// fault plan slows the x86 microservers 6× without touching their
// advertised capacity, so the cost model keeps scoring them best and
// every placement lands on silicon that quietly straggles. The per-job
// watchdog — armed on the deterministic virtual clock at 1.5× each
// task's expected span — flags the stretch, launches a speculative
// replica on a different device through the core and watt ledgers
// (hedges pay their way under the power cap), lets the first completion
// win, and folds the witnessed slowdown into placement so later tasks
// route around the degraded devices entirely. A deadline on each job's
// final report task demonstrates graceful degradation: under
// DeadlineShed, a late low-priority task is shed instead of failing the
// job.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legato"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/plot"
	"legato/internal/power"
	"legato/internal/sim"
)

// buildChains fills a job with three parallel four-stage chains of
// 8-core tasks (the x86 microservers are the clean favourites) plus a
// low-priority report task behind all of them with a deadline tighter
// than the degraded session can meet.
func buildChains(job *legato.Job) error {
	var outs []legato.DataHandle
	for c := 0; c < 3; c++ {
		prev := job.Data(fmt.Sprintf("chain%d/in", c), 4096)
		for stage := 0; stage < 4; stage++ {
			next := job.Data(fmt.Sprintf("chain%d/s%d", c, stage), 4096)
			if err := job.Task(fmt.Sprintf("chain%d/stage%d", c, stage)).
				Gops(400).Cores(8).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
		outs = append(outs, prev)
	}
	return job.Task("report").Gops(40).Cores(1).In(outs...).
		Deadline(8 * time.Second).Submit()
}

func main() {
	log.SetFlags(0)

	probe, err := legato.NewSystem(legato.WithPlatform(legato.CloudPlatform))
	if err != nil {
		log.Fatal(err)
	}
	capW := 0.6 * float64(power.FleetPeakWatts(probe.Devices()))
	if err := probe.Close(context.Background()); err != nil {
		log.Fatal(err)
	}

	sys, err := legato.NewSystem(
		legato.WithPlatform(legato.CloudPlatform),
		legato.WithPolicy(legato.MinTime),
		legato.WithWorkers(3),
		legato.WithPowerCap(capW),
		// Silently slow every x86 microserver 6× almost immediately:
		// capacity is untouched (DegradeTo 1), so placement keeps
		// trusting the devices — only the watchdog can notice.
		legato.WithFaults(faults.Plan{
			DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
			DegradeTo:       1.0,
			DegradeSlowdown: 6.0,
			Seed:            7,
		}),
		legato.WithHedging(legato.HedgePolicy{Multiplier: 1.5}),
		legato.WithDeadlineMode(legato.DeadlineShed),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer sys.Close(ctx)

	var jobs []*legato.Job
	for n := 0; n < 3; n++ {
		job, err := sys.NewJob(fmt.Sprintf("render-%d", n))
		if err != nil {
			log.Fatal(err)
		}
		if err := buildChains(job); err != nil {
			log.Fatal(err)
		}
		if err := job.Start(ctx); err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		rep, err := job.Wait(ctx)
		if err != nil {
			log.Fatalf("%s: %v", job.Name(), err)
		}
		fmt.Printf("%-9s done: makespan %6.3f s · stragglers %d · hedges %d launched / %d won · %5.1f J wasted · %d shed\n",
			job.Name(), sim.ToSeconds(rep.Makespan), rep.StragglersDetected,
			rep.HedgesLaunched, rep.HedgesWon, rep.HedgeWastedJ, rep.TasksShed)
	}

	st := sys.Stats()
	fmt.Printf("\nfleet under a %.0f W cap: peak draw %.1f W (witness: hedges never breach the budget)\n",
		st.PowerCapW, st.PeakDrawW)
	fmt.Printf("session      %d stragglers flagged, %d hedges launched, %d won, %d denied\n",
		st.StragglersDetected, st.HedgesLaunched, st.HedgesWon, st.HedgesDenied)
	fmt.Printf("energy       %.1f J platform, of which %.1f J burned by cancelled losers\n",
		st.PlatformEnergyJ, st.HedgeWastedJ)
	fmt.Printf("deadlines    %d missed, %d tasks shed gracefully\n\n",
		st.DeadlineMisses, st.TasksShed)
	if st.PeakDrawW > st.PowerCapW {
		log.Fatal("power-cap witness violated")
	}
	if st.HedgesWon == 0 {
		log.Fatal("no hedge won: the tail-tolerance path was not exercised")
	}

	// The watt-ledger samples recorded as "power" trace spans render the
	// fleet draw-vs-time curve directly.
	xs, ys := sys.Tracer().Series("power")
	chart := plot.Chart{
		Title:  "fleet draw vs virtual time (power spans)",
		XLabel: "s", YLabel: "W", Height: 10,
	}
	chart.Add(plot.Series{Name: "draw", X: xs, Y: ys})
	fmt.Print(chart.Render())
}
