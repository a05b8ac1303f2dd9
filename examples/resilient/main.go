// Resilient: a LEGaTO session armed with an MTBF-driven failure process
// (paper Sec. IV). Devices crash at sampled virtual times; jobs recover by
// re-placing revoked tasks on survivors (bounded retries, exponential
// backoff) and by restarting from their last committed FTI checkpoint
// instead of from zero. The session degrades gracefully: the fleet keeps
// admitting every job that still fits the surviving devices.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legato"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/fti"
	"legato/internal/sim"
)

func buildPipeline(job *legato.Job) error {
	for c := 0; c < 4; c++ {
		prev := job.Data(fmt.Sprintf("chain%d/in", c), 1<<20)
		for stage := 0; stage < 5; stage++ {
			next := job.Data(fmt.Sprintf("chain%d/s%d", c, stage), 1<<20)
			if err := job.Task(fmt.Sprintf("chain%d/stage%d", c, stage)).
				Gops(25).Retry(3).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)

	// Aggressively compressed MTBFs (seconds of virtual time, not hours)
	// so a session of a few virtual seconds actually sees a crash. The
	// default model (ft.DefaultMTBFModel) uses the paper-scale hour
	// figures; Scaled shrinks every class by the same factor.
	plan := faults.Plan{
		MTBF:       ft.DefaultMTBFModel().Scaled(1.0 / 200_000),
		MaxCrashes: 1,
		Seed:       62,
	}
	sys, err := legato.NewSystem(
		legato.WithPlatform(legato.CloudPlatform),
		legato.WithPolicy(legato.MinTime),
		legato.WithWorkers(8),
		legato.WithFaults(plan),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer sys.Close(ctx)

	var jobs []*legato.Job
	for n := 0; n < 8; n++ {
		job, err := sys.NewJob(fmt.Sprintf("tenant-%d", n))
		if err != nil {
			log.Fatal(err)
		}
		// Asynchronous L1 checkpoint (local NVMe) every four completions:
		// on a device loss only the un-persisted tail re-executes.
		if err := job.Checkpoint(4, fti.L1); err != nil {
			log.Fatal(err)
		}
		if err := buildPipeline(job); err != nil {
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
		fmt.Printf("%-10s done: %2d tasks, makespan %.3f s, retries %d, restores %d, checkpoints %d\n",
			job.Name(), len(rep.Records), sim.ToSeconds(rep.Makespan),
			rep.TasksRetried, rep.TasksRestored, rep.Checkpoints)
	}

	st := sys.Stats()
	fmt.Printf("\nsession: %d/%d jobs completed under %d device loss(es)\n",
		st.JobsCompleted, len(jobs), st.DevicesLost)
	fmt.Printf("recovery: %d retries, %d restores, %d checkpoints committed\n",
		st.TasksRetried, st.TasksRestored, st.Checkpoints)
	for _, id := range sys.Fleet().Devices() {
		if sys.Fleet().Lost(id) {
			fmt.Printf("lost device: %s (capacity now %d)\n", id, sys.Fleet().Capacity(id))
		}
	}
	if st.DevicesLost == 0 {
		fmt.Println("no device crashed this run — try another seed in the plan")
	}
}
