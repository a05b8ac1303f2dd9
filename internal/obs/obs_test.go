package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"legato/internal/sim"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := TaskQueued; k <= DeviceLost; k++ {
		name := k.String()
		if strings.Contains(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		var back Kind
		if err := back.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("unmarshal %q: %v", name, err)
		}
		if back != k {
			t.Fatalf("round trip %q: got %v want %v", name, back, k)
		}
	}
	var k Kind
	for _, bad := range []string{"no-such-kind", "kind(3)", "kind(022)", "kind(256)", "kind(-1)", "kind(30"} {
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Fatalf("%q must fail to parse", bad)
		}
	}
	// A kind outside the taxonomy renders as kind(N) and parses back.
	for _, out := range []Kind{HedgeDenied + 1, 255} {
		var back Kind
		if err := back.UnmarshalText([]byte(out.String())); err != nil || back != out {
			t.Fatalf("round trip %q: got %v, %v", out.String(), back, err)
		}
	}
}

func TestBusSequencesAndObserves(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	for i := 0; i < 3; i++ {
		b.Publish(Event{At: sim.Time(i) * sim.Time(time.Second), Kind: TaskStarted, Task: fmt.Sprintf("t%d", i)})
	}
	events := c.Events()
	if len(events) != 3 {
		t.Fatalf("collected %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestNilAndIdleBusArePassive(t *testing.T) {
	var nilBus *Bus
	nilBus.Publish(Event{Kind: TaskStarted}) // must not panic
	if nilBus.Active() {
		t.Fatal("nil bus reports active")
	}
	b := NewBus()
	b.Publish(Event{Kind: TaskStarted})
	if b.Active() {
		t.Fatal("idle bus reports active")
	}
	sub := b.Subscribe(1)
	if !b.Active() {
		t.Fatal("bus with subscription reports inactive")
	}
	sub.Close()
	if b.Active() {
		t.Fatal("bus active after last subscription closed")
	}
	// Events published while idle are invisible: the next listener's
	// stream starts at the current sequence.
	b.Publish(Event{Kind: TaskStarted})
	var c Collector
	b.Observe(c.Observe)
	b.Publish(Event{Kind: TaskCompleted})
	if got := c.Events(); len(got) != 1 || got[0].Kind != TaskCompleted {
		t.Fatalf("observer saw %v, want one task-completed", got)
	}
}

func TestSubscriptionDropsWhenFullAndCounts(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(2)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: TaskQueued})
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3 (buffer 2, published 5)", got)
	}
	sub.Close()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("received %d buffered events after close, want 2", n)
	}
	sub.Close() // double close is a no-op
}

func TestBusConcurrentPublishRace(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	sub := b.Subscribe(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: TaskStarted, Job: fmt.Sprintf("j%d", g)})
			}
		}(g)
	}
	wg.Wait()
	sub.Close()
	<-done
	if n := len(c.Events()); n != 800 {
		t.Fatalf("observer saw %d events, want 800", n)
	}
	// Sequence numbers are the global publication order: dense 1..800.
	seen := make(map[uint64]bool)
	for _, e := range c.Events() {
		seen[e.Seq] = true
	}
	for s := uint64(1); s <= 800; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d missing", s)
		}
	}
}

func TestFormatLogStable(t *testing.T) {
	events := []Event{
		{Seq: 1, At: sim.Time(1500 * time.Millisecond), Kind: TaskPlaced, Job: "render", Task: "stage0", Device: "gpu0", Value: 8},
		{Seq: 2, At: sim.Time(2 * time.Second), Kind: PowerRefused, Job: "render", Task: "stage1", Device: "gpu1", Value: 120, Detail: "cap"},
	}
	got := FormatLog(events)
	want := "     1     1.500000s task-placed        job=render task=stage0 dev=gpu0 v=8\n" +
		"     2     2.000000s power-refused      job=render task=stage1 dev=gpu1 v=120 (cap)\n"
	if got != want {
		t.Fatalf("log rendering drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Seq: 7, At: sim.Time(3 * time.Second), Kind: HedgeWon, Job: "j", Task: "t", Device: "d", Value: 1.5, Detail: "x"}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"kind":"hedge-won"`) {
		t.Fatalf("kind not marshalled by name: %s", blob)
	}
	var out Event
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// BenchmarkPublishDisabled witnesses the fast path: publishing on a bus
// nobody listens to must be a single atomic load, no allocation.
func BenchmarkPublishDisabled(b *testing.B) {
	bus := NewBus()
	e := Event{Kind: TaskStarted, Job: "j", Task: "t", Device: "d"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(e)
	}
}

// BenchmarkPublishArmed is the armed path next to it: one observer, so
// every publish takes the bus lock and makes one call.
func BenchmarkPublishArmed(b *testing.B) {
	bus := NewBus()
	n := 0
	bus.Observe(func(Event) { n++ })
	e := Event{Kind: TaskStarted, Job: "j", Task: "t", Device: "d"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(e)
	}
	if n != b.N {
		b.Fatalf("observer saw %d of %d events", n, b.N)
	}
}
