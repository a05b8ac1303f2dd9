package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time: got %v want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order wrong: %v", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("nested schedule times: %v", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.Schedule(10, func() { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Now() != 0 {
		// Cancelled events still advance nothing.
		t.Fatalf("clock moved for cancelled event: %v", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var at Time
	e.ScheduleAt(42, func() { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("ScheduleAt fired at %v", at)
	}
}

func TestResourceSerialises(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Use(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d: got %v want %v (capacity-1 resource must serialise)", i, done[i], w)
		}
	}
	if r.Busy != 30 {
		t.Fatalf("busy accounting: got %v want 30", r.Busy)
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Use(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two at a time: completions at 10,10,20,20.
	want := []Time{10, 10, 20, 20}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d: got %v want %v", i, done[i], w)
		}
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on release of idle resource")
		}
	}()
	e := NewEngine()
	NewResource(e, 1).Release()
}

func TestPipeTransferTiming(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 100, 0) // 100 B/s
	var doneAt Time
	p.Transfer(50, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != Seconds(0.5) {
		t.Fatalf("transfer time: got %v want 0.5s", doneAt)
	}
	if p.Transferred != 50 {
		t.Fatalf("transferred bytes: %d", p.Transferred)
	}
}

func TestPipeSerialisesWithLatency(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1000, Millisecond)
	var times []Time
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	e.Run()
	first := Second + Millisecond
	if times[0] != first || times[1] != 2*first {
		t.Fatalf("pipe serialisation wrong: %v", times)
	}
}

// Property: for random event sets, the engine fires every event exactly
// once, in non-decreasing time order.
func TestEngineMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		e := NewEngine()
		n := 1 + rng.Intn(50)
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			e.Schedule(Time(rng.Intn(1000)), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				fired++
			})
		}
		e.Run()
		return ok && fired == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-c resource never exceeds c units in use and
// completes all work.
func TestResourceInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		e := NewEngine()
		c := 1 + rng.Intn(4)
		r := NewResource(e, c)
		n := 1 + rng.Intn(40)
		completed := 0
		ok := true
		for i := 0; i < n; i++ {
			r.Use(Time(1+rng.Intn(100)), func() { completed++ })
			if r.inUse > c {
				ok = false
			}
		}
		e.Run()
		return ok && completed == n && r.inUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if ToSeconds(Seconds(2.5)) != 2.5 {
		t.Fatalf("seconds round trip: %v", ToSeconds(Seconds(2.5)))
	}
}

// BenchmarkEventHeap measures the kernel's schedule-and-fire cost: each
// iteration schedules 10⁴ events at shuffled instants on a fresh engine and
// drains them. ns/event and allocs/event divide by the events fired.
func BenchmarkEventHeap(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	at := make([]Time, n)
	for i := range at {
		at[i] = Time(rng.Intn(n))
	}
	fn := func() {}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, t := range at {
			e.Schedule(t, fn)
		}
		e.Run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}
