package trace

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"legato/internal/sim"
)

func TestSpanTiming(t *testing.T) {
	s := Span{Name: "task-a", Category: "compute", Resource: "cpu0", Start: 10, End: 25}
	if s.Duration() != 15 {
		t.Fatalf("span duration: %v", s.Duration())
	}
	tr := New()
	tr.Merge([]Span{s})
	if got := tr.Spans(); len(got) != 1 || got[0] != s {
		t.Fatalf("merged span: %+v", got)
	}
}

func TestCounters(t *testing.T) {
	tr := New()
	tr.Count("bytes", 100)
	tr.Count("bytes", 50)
	if tr.Counter("bytes") != 150 {
		t.Fatalf("counter: %v", tr.Counter("bytes"))
	}
}

// TestExportParaver pins ParaverText's records: one state record per
// span, numbered in span order, then one event record per counter,
// sorted by name.
func TestExportParaver(t *testing.T) {
	spans := []Span{
		{Name: "t0", Category: "task", Resource: "gpu0", Start: 1, End: 5},
		{Name: "fleet-draw", Category: "power", Resource: "fleet", Start: 5, End: 5, Value: 42},
	}
	counters := map[string]float64{"jobs": 2, "faults": 0.5}
	want := "#Paraver (legato trace)\n" +
		"1:gpu0:1:1:5:task:t0\n" +
		"1:fleet:2:5:5:power:fleet-draw\n" +
		"2:faults:0.5\n" +
		"2:jobs:2\n"
	if got := ParaverText(spans, counters); got != want {
		t.Fatalf("ParaverText:\n%s\nwant\n%s", got, want)
	}
	if got := ParaverText(nil, nil); got != "#Paraver (legato trace)\n" {
		t.Fatalf("empty ParaverText: %q", got)
	}
}

// TestParaverTextMatchesExport checks that a tracer's export — its
// Spans and Counters views rendered by ParaverText — is the same text
// as rendering the spans and counters it was fed directly.
func TestParaverTextMatchesExport(t *testing.T) {
	span := Span{Name: "t0", Category: "task", Resource: "gpu0", Start: 1, End: 5}
	tr := New()
	tr.Merge([]Span{span})
	tr.Count("hedges", 1)
	want := "#Paraver (legato trace)\n" +
		"1:gpu0:1:1:5:task:t0\n" +
		"2:hedges:1\n"
	if got := ParaverText([]Span{span}, map[string]float64{"hedges": 1}); got != want {
		t.Fatalf("direct render:\n%s\nwant\n%s", got, want)
	}
	if got := ParaverText(tr.Spans(), tr.Counters()); got != want {
		t.Fatalf("tracer export diverges:\n%s\nwant\n%s", got, want)
	}
}

// TestConcurrentTracerUse merges job spans and counts on one tracer from
// parallel goroutines — the shape of a session trace receiving completed
// jobs while others still run. Run under -race; the witness is no race,
// no lost span and each job's spans kept together in job order.
func TestConcurrentTracerUse(t *testing.T) {
	session := New()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var job []Span
			for i := 0; i < perWorker; i++ {
				job = append(job, Span{Name: fmt.Sprintf("w%d/t%d", w, i), Category: "task", Resource: "dev"})
				session.Count("ops", 1)
			}
			session.Merge(job)
			session.Count("jobs", 1)
		}(w)
	}
	wg.Wait()
	spans := session.Spans()
	if len(spans) != workers*perWorker {
		t.Fatalf("lost spans under concurrency: %d, want %d", len(spans), workers*perWorker)
	}
	for j := 0; j < workers; j++ {
		first := spans[j*perWorker].Name
		var w int
		if _, err := fmt.Sscanf(first, "w%d/t0", &w); err != nil {
			t.Fatalf("job %d starts with %q, want a first span", j, first)
		}
		for i := 0; i < perWorker; i++ {
			if got, want := spans[j*perWorker+i].Name, fmt.Sprintf("w%d/t%d", w, i); got != want {
				t.Fatalf("span %d = %q, want %q: a job's spans interleaved", j*perWorker+i, got, want)
			}
		}
	}
	if session.Counter("ops") != workers*perWorker || session.Counter("jobs") != workers {
		t.Fatalf("lost counts: ops=%v jobs=%v", session.Counter("ops"), session.Counter("jobs"))
	}
}

func TestMergeEmptyIsNoOp(t *testing.T) {
	session, flat := mergeFixture()
	session.Merge(nil)
	session.Merge([]Span{})
	if got, want := fmt.Sprint(session.Spans()), fmt.Sprint(flat); got != want {
		t.Fatalf("empty merge changed a chunked trace:\n%s\nwant\n%s", got, want)
	}
	tr := New()
	tr.Merge(nil)
	tr.Merge([]Span{})
	if tr.Spans() != nil {
		t.Fatal("an empty tracer's Spans is not nil")
	}
}

// TestSeriesVirtualTimeOrder merges samples out of time order and checks
// Series returns them sorted by virtual time.
func TestSeriesVirtualTimeOrder(t *testing.T) {
	tr := New()
	at := func(s sim.Time, v float64) Span {
		return Span{Name: "draw", Category: "power", Resource: "fleet", Start: s, End: s, Value: v}
	}
	tr.Merge([]Span{at(30, 3), at(10, 1)})
	tr.Merge([]Span{at(20, 2), at(5, 0.5)})
	xs, ys := tr.Series("power")
	if len(xs) != 4 {
		t.Fatalf("series length %d", len(xs))
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("series x values not time-sorted: %v", xs)
	}
	want := []float64{0.5, 1, 2, 3}
	for i, v := range want {
		if ys[i] != v {
			t.Fatalf("series values out of order: %v", ys)
		}
	}
}

func TestCountersCopy(t *testing.T) {
	tr := New()
	tr.Count("a", 2)
	c := tr.Counters()
	c["a"] = 99
	if tr.Counter("a") != 2 {
		t.Fatal("Counters returned a live reference")
	}
}

// mergeFixture merges four jobs' spans (one of them empty) into a session
// trace, and returns the spans it merged in order: what one growing slice
// would hold.
func mergeFixture() (session *Tracer, flat []Span) {
	session = New()
	job := func(j, n int) {
		var spans []Span
		for i := 0; i < n; i++ {
			spans = append(spans, Span{Name: fmt.Sprintf("j%d/t%d", j, i), Category: []string{"task", "power"}[i%2],
				Resource: fmt.Sprintf("dev%d", i%3), Start: sim.Time(10*j + n - i), End: sim.Time(10*j + n + i), Value: float64(i)})
		}
		flat = append(flat, spans...)
		session.Merge(spans)
	}
	job(1, 4)
	job(2, 3)
	job(3, 0)
	job(4, 5)
	return session, flat
}

func TestMergeKeepsCompletionOrder(t *testing.T) {
	session, flat := mergeFixture()
	got := session.Spans()
	if len(got) != len(flat) {
		t.Fatalf("session holds %d spans, want %d", len(got), len(flat))
	}
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], flat[i])
		}
	}
	// A session's spans merged into another keep their order too.
	outer := New()
	outer.Merge(session.Spans())
	if again := outer.Spans(); fmt.Sprint(again) != fmt.Sprint(flat) {
		t.Fatalf("re-merged session reordered its spans:\n%v\nwant\n%v", again, flat)
	}
}

func TestMergeCopiesJobSpans(t *testing.T) {
	session := New()
	job := []Span{{Name: "a", Category: "task", Resource: "d"}}
	session.Merge(job)
	job[0].Name = "rewritten"
	if s := session.Spans(); len(s) != 1 || s[0].Name != "a" {
		t.Fatalf("job writes after the merge leaked into the session: %+v", s)
	}
	session.Spans()[0].Name = "mutated"
	if session.Spans()[0].Name != "a" {
		t.Fatal("Spans returned a live reference to a merged chunk")
	}
}

func TestChunkedViewsMatchFlat(t *testing.T) {
	session, flat := mergeFixture()
	single := New()
	single.Merge(flat)
	for _, cat := range []string{"task", "power", "ckpt"} {
		gx, gy := session.Series(cat)
		wx, wy := single.Series(cat)
		if fmt.Sprint(gx, gy) != fmt.Sprint(wx, wy) {
			t.Fatalf("Series(%q) = %v %v, want %v %v", cat, gx, gy, wx, wy)
		}
	}
	if got, want := ParaverText(session.Spans(), nil), ParaverText(flat, nil); got != want {
		t.Fatalf("ParaverText diverges:\n%s\nwant\n%s", got, want)
	}
}

// BenchmarkTracerMerge merges 500 job traces of 100 spans each into a
// fresh session trace per iteration: the completion path of a 500-job
// session.
func BenchmarkTracerMerge(b *testing.B) {
	const jobs, spans = 500, 100
	traces := make([][]Span, jobs)
	for j := range traces {
		for i := 0; i < spans; i++ {
			traces[j] = append(traces[j], Span{Name: "t", Category: "task", Resource: "dev", Start: sim.Time(i), End: sim.Time(i + 1)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		session := New()
		for _, tr := range traces {
			session.Merge(tr)
			session.Count("jobs", 1)
		}
	}
}
