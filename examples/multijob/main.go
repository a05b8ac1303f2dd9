// Multi-job: a long-lived LEGaTO session running many independent task
// graphs concurrently on one shared cloud fleet. Each job owns a private
// virtual clock and reads the one read-only fleet; the session's ledger keeps
// the union of placements feasible, so throughput scales with the worker
// pool while no device is ever oversubscribed. One job carries a deadline
// it cannot meet, demonstrating context-style cancellation end-to-end.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"legato"
	"legato/internal/sim"
)

// buildPipeline fills a job with four independent chains of five
// dependent stages each.
func buildPipeline(job *legato.Job) error {
	for c := 0; c < 4; c++ {
		prev := job.Data(fmt.Sprintf("chain%d/in", c), 2048)
		for stage := 0; stage < 5; stage++ {
			next := job.Data(fmt.Sprintf("chain%d/s%d", c, stage), 2048)
			if err := job.Task(fmt.Sprintf("chain%d/stage%d", c, stage)).
				Gops(25).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)

	sys, err := legato.NewSystem(
		legato.WithPlatform(legato.CloudPlatform),
		legato.WithPolicy(legato.MinTime),
		legato.WithWorkers(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer sys.Close(ctx)

	// Eight independent jobs, started without waiting in between.
	var jobs []*legato.Job
	for n := 0; n < 8; n++ {
		job, err := sys.NewJob(fmt.Sprintf("tenant-%d", n))
		if err != nil {
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

	// A ninth job with an impossible deadline: the engine cancels it and
	// returns its capacity to the fleet.
	doomed, err := sys.NewJob("tenant-doomed")
	if err != nil {
		log.Fatal(err)
	}
	if err := buildPipeline(doomed); err != nil {
		log.Fatal(err)
	}
	doomed.SetTimeout(time.Nanosecond)
	if err := doomed.Start(ctx); err != nil {
		log.Fatal(err)
	}

	for _, job := range jobs {
		rep, err := job.Wait(ctx)
		if err != nil {
			log.Fatalf("%s: %v", job.Name(), err)
		}
		fmt.Printf("%-12s done: %2d tasks, makespan %.3f s, energy %.2f J\n",
			job.Name(), len(rep.Records), sim.ToSeconds(rep.Makespan), rep.TaskEnergyJ)
	}
	if _, err := doomed.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) ||
		!errors.Is(err, legato.ErrJobCancelled) {
		log.Fatalf("doomed job: err = %v, want deadline exceeded + ErrJobCancelled", err)
	}
	fmt.Printf("%-12s %s (deadline enforced)\n\n", doomed.Name(), doomed.State())

	st := sys.Stats()
	fmt.Printf("session: %d jobs completed, %d cancelled, %d tasks\n",
		st.JobsCompleted, st.JobsCancelled, st.TasksCompleted)
	fmt.Printf("fleet time: %v serial-equivalent vs %v concurrent → %.2fx throughput\n",
		st.TotalJobTime, st.SessionMakespan, st.Speedup)
	fmt.Printf("admission stalls: %d (0 = contention-free overlap)\n", st.AdmissionStalls)
}
