package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func inflightLen(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inflight)
}

// TestShutdownCancelsInflight: Shutdown under an expired context cancels
// every queued and running job, leaves no core claimed and empties the
// in-flight set. The running jobs block in a task until each submitted
// job's context is cancelled, so the cancel path, not the drain, ends them.
func TestShutdownCancelsInflight(t *testing.T) {
	const workers, jobs = 2, 6
	e := newTestEngine(t, workers)
	gate := make(chan struct{})
	var all []*Job
	for i := 0; i < jobs; i++ {
		j := chainJob(t, e, fmt.Sprintf("held%d", i), 4, 1, func() { <-gate })
		if err := e.Submit(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	shut := make(chan error, 1)
	go func() { shut <- e.Shutdown(expired) }()
	for _, j := range all {
		j.mu.Lock()
		ctx := j.ctx
		j.mu.Unlock()
		<-ctx.Done()
	}
	close(gate)
	if err := <-shut; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	for _, j := range all {
		if s := j.State(); s != Cancelled && s != Done {
			t.Fatalf("job %s ended %v, want cancelled or done", j.Name, s)
		}
	}
	if n := inflightLen(e); n != 0 {
		t.Fatalf("%d jobs left in flight after shutdown", n)
	}
	for _, id := range e.Fleet().Devices() {
		if n := e.Fleet().InUse(id); n != 0 {
			t.Fatalf("%d cores of %s left in use after shutdown", n, id)
		}
	}
}
