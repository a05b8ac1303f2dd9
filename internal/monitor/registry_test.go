package monitor

import (
	"sync"
	"testing"
)

func TestRegistrySnapshotDeepCopy(t *testing.T) {
	r := NewRegistry()
	r.Add("job/a", "tasks-completed", 3)
	r.Set("device/d0", "busy-s", 1.5)
	snap := r.Snapshot()
	if snap["job/a"]["tasks-completed"] != 3 || snap["device/d0"]["busy-s"] != 1.5 {
		t.Fatalf("snapshot content wrong: %v", snap)
	}
	// Mutating the snapshot must not touch the registry, and vice versa.
	snap["job/a"]["tasks-completed"] = 99
	snap["new"] = map[string]float64{"x": 1}
	if r.Get("job/a", "tasks-completed") != 3 {
		t.Fatal("snapshot mutation leaked into the registry")
	}
	r.Add("job/a", "tasks-completed", 1)
	if snap["job/a"]["tasks-completed"] != 99 {
		t.Fatal("registry write leaked into the snapshot")
	}
}

func TestRegistrySnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scope := []string{"job/a", "job/b", "device/d0", "tail"}[g]
			for {
				select {
				case <-stop:
					return
				default:
					r.Add(scope, "m", 1)
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		for scope, metrics := range r.Snapshot() {
			for m := range metrics {
				_ = r.Get(scope, m)
			}
		}
	}
	close(stop)
	wg.Wait()
}
