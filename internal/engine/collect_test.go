//go:build go1.24

package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"legato/internal/obs"
	"legato/internal/taskrt"
)

// TestFinishedJobsAreCollectable: once a job is terminal and its caller
// drops the handle, nothing in the engine keeps its runtime or its span
// fold reachable, so a long session does not grow with the jobs it ran.
func TestFinishedJobsAreCollectable(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx := context.Background()
	var rts []weak.Pointer[taskrt.Runtime]
	var folds []weak.Pointer[obs.SpanFold]
	func() {
		for i := 0; i < 4; i++ {
			j := chainJob(t, e, fmt.Sprintf("gone%d", i), 5, 1, func() {})
			if err := e.Submit(ctx, j); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			rts = append(rts, weak.Make(j.Runtime()))
			folds = append(folds, weak.Make(j.fold))
		}
	}()
	if n := inflightLen(e); n != 0 {
		t.Fatalf("%d finished jobs still in flight", n)
	}
	runtime.GC()
	for i := range rts {
		if rts[i].Value() != nil || folds[i].Value() != nil {
			t.Fatalf("job gone%d: runtime or span fold still reachable after completion", i)
		}
	}
}
