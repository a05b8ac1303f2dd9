package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"legato/internal/sim"
)

func TestSpanTiming(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	var id int
	eng.Schedule(10, func() { id = tr.Begin("task-a", "compute", "cpu0") })
	eng.Schedule(25, func() { tr.End(id) })
	eng.Run()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans: %d", len(spans))
	}
	if spans[0].Start != 10 || spans[0].End != 25 || spans[0].Duration() != 15 {
		t.Fatalf("span timing: %+v", spans[0])
	}
}

func TestEndUnknownIgnored(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	tr.End(42) // must not panic
	if len(tr.Spans()) != 0 {
		t.Fatal("phantom span")
	}
}

func TestByCategory(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	a := tr.Begin("x", "compute", "cpu0")
	eng.Schedule(5, func() { tr.End(a) })
	eng.Schedule(5, func() {
		b := tr.Begin("y", "io", "nvme0")
		eng.Schedule(7, func() { tr.End(b) })
	})
	eng.Run()
	cats := tr.ByCategory()
	if cats["compute"] != 5 || cats["io"] != 7 {
		t.Fatalf("categories: %v", cats)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	tr.Count("bytes", 100)
	tr.Count("bytes", 50)
	if tr.Counter("bytes") != 150 {
		t.Fatalf("counter: %v", tr.Counter("bytes"))
	}
}

func TestExportParaver(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	id := tr.Begin("task", "compute", "gpu0")
	eng.Schedule(3, func() { tr.End(id) })
	eng.Run()
	tr.Count("faults", 2)
	out := tr.ExportParaver()
	for _, frag := range []string{"#Paraver", "gpu0", "compute", "task", "faults"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("export missing %q:\n%s", frag, out)
		}
	}
}

// TestConcurrentTracerUse hammers Begin/End/Add/Count on one tracer from
// parallel goroutines while sibling tracers Merge into it — the shape of
// a session trace receiving completed jobs while others still record.
// Run under -race; the witness is no race and no lost span.
func TestConcurrentTracerUse(t *testing.T) {
	session := New(sim.NewEngine())
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := New(sim.NewEngine())
			for i := 0; i < perWorker; i++ {
				id := session.Begin(fmt.Sprintf("w%d/t%d", w, i), "task", "dev")
				session.End(id)
				local.Add(Span{Name: fmt.Sprintf("w%d/l%d", w, i), Category: "local", Resource: "dev"})
				local.Count("bytes", 1)
				session.Count("ops", 1)
			}
			session.Merge(local)
		}(w)
	}
	wg.Wait()
	if got := len(session.Spans()); got != 2*workers*perWorker {
		t.Fatalf("lost spans under concurrency: %d, want %d", got, 2*workers*perWorker)
	}
	if session.Counter("ops") != workers*perWorker || session.Counter("bytes") != workers*perWorker {
		t.Fatalf("lost counts: ops=%v bytes=%v", session.Counter("ops"), session.Counter("bytes"))
	}
}

func TestMergeSelfAndNilAreNoOps(t *testing.T) {
	session, flat := mergeFixture()
	session.Merge(nil)
	session.Merge(session)
	if got, want := fmt.Sprint(session.Spans()), fmt.Sprint(flat.Spans()); got != want {
		t.Fatalf("self/nil merge changed a chunked trace:\n%s\nwant\n%s", got, want)
	}
	if got, want := session.Counter("jobs"), flat.Counter("jobs"); got != want {
		t.Fatalf("self/nil merge changed counters: %v, want %v", got, want)
	}
	tr := New(sim.NewEngine())
	tr.Add(Span{Name: "x", Category: "task", Resource: "d"})
	tr.Merge(nil)
	tr.Merge(tr)
	if len(tr.Spans()) != 1 {
		t.Fatalf("self/nil merge changed spans: %d", len(tr.Spans()))
	}
	if New(sim.NewEngine()).Spans() != nil {
		t.Fatal("an empty tracer's Spans is not nil")
	}
}

// TestSeriesVirtualTimeOrder records samples out of submission order and
// checks Series returns them sorted by virtual time.
func TestSeriesVirtualTimeOrder(t *testing.T) {
	tr := New(sim.NewEngine())
	at := func(s sim.Time, v float64) {
		tr.Add(Span{Name: "draw", Category: "power", Resource: "fleet", Start: s, End: s, Value: v})
	}
	at(30, 3)
	at(10, 1)
	at(20, 2)
	at(5, 0.5)
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
	tr := New(sim.NewEngine())
	tr.Count("a", 2)
	c := tr.Counters()
	c["a"] = 99
	if tr.Counter("a") != 2 {
		t.Fatal("Counters returned a live reference")
	}
}

func TestParaverTextMatchesExport(t *testing.T) {
	tr := New(sim.NewEngine())
	tr.Add(Span{Name: "t0", Category: "task", Resource: "gpu0", Start: 1, End: 5})
	tr.Count("hedges", 1)
	if got, want := ParaverText(tr.Spans(), tr.Counters()), tr.ExportParaver(); got != want {
		t.Fatalf("package-level render diverges:\n%s\nvs\n%s", got, want)
	}
}

func TestSummary(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	id := tr.Begin("t", "ckpt", "node0")
	eng.Schedule(4, func() { tr.End(id) })
	eng.Run()
	if !strings.Contains(tr.Summary(), "ckpt") {
		t.Fatal("summary missing category")
	}
}

// mergeFixture builds a session trace from interleaved own spans and
// merged jobs, and a flat tracer that records the same spans with Add in
// the order the session saw them: what one growing slice would hold.
func mergeFixture() (session, flat *Tracer) {
	eng := sim.NewEngine()
	session, flat = New(eng), New(sim.NewEngine())
	own := func(s Span) {
		session.Add(s)
		flat.Add(s)
	}
	job := func(j, n int) {
		tr := New(sim.NewEngine())
		for i := 0; i < n; i++ {
			s := Span{Name: fmt.Sprintf("j%d/t%d", j, i), Category: []string{"task", "power"}[i%2],
				Resource: fmt.Sprintf("dev%d", i%3), Start: sim.Time(10*j + n - i), End: sim.Time(10*j + n + i), Value: float64(i)}
			tr.Add(s)
			flat.Add(s)
		}
		tr.Count("jobs", 1)
		flat.Count("jobs", 1)
		session.Merge(tr)
	}
	own(Span{Name: "own0", Category: "task", Resource: "dev0", Start: 3, End: 9})
	job(1, 4)
	id := session.Begin("own1", "ckpt", "node0")
	eng.Schedule(7, func() { session.End(id) })
	eng.Run()
	flat.Add(Span{Name: "own1", Category: "ckpt", Resource: "node0", Start: 0, End: 7})
	job(2, 3)
	job(3, 0)
	job(4, 5)
	own(Span{Name: "own2", Category: "power", Resource: "fleet", Start: 1, End: 1, Value: 42})
	return session, flat
}

func TestMergeKeepsCompletionOrder(t *testing.T) {
	session, flat := mergeFixture()
	got, want := session.Spans(), flat.Spans()
	if len(got) != len(want) {
		t.Fatalf("session holds %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A session merged into another keeps its order too.
	outer := New(sim.NewEngine())
	outer.Merge(session)
	if again := outer.Spans(); fmt.Sprint(again) != fmt.Sprint(want) {
		t.Fatalf("re-merged session reordered its spans:\n%v\nwant\n%v", again, want)
	}
}

func TestMergeCopiesJobSpans(t *testing.T) {
	session := New(sim.NewEngine())
	job := New(sim.NewEngine())
	job.Add(Span{Name: "a", Category: "task", Resource: "d"})
	session.Merge(job)
	job.Add(Span{Name: "late", Category: "task", Resource: "d"})
	id := job.Begin("open", "task", "d")
	job.End(id)
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
	for _, cat := range []string{"task", "power", "ckpt"} {
		gx, gy := session.Series(cat)
		wx, wy := flat.Series(cat)
		if fmt.Sprint(gx, gy) != fmt.Sprint(wx, wy) {
			t.Fatalf("Series(%q) = %v %v, want %v %v", cat, gx, gy, wx, wy)
		}
	}
	if got, want := fmt.Sprint(session.ByCategory()), fmt.Sprint(flat.ByCategory()); got != want {
		t.Fatalf("ByCategory = %s, want %s", got, want)
	}
	if got, want := session.ExportParaver(), flat.ExportParaver(); got != want {
		t.Fatalf("ExportParaver diverges:\n%s\nwant\n%s", got, want)
	}
	if got, want := session.Summary(), flat.Summary(); got != want {
		t.Fatalf("Summary diverges:\n%s\nwant\n%s", got, want)
	}
}

// BenchmarkTracerMerge merges 500 job traces of 100 spans each into a
// fresh session trace per iteration: the completion path of a 500-job
// session.
func BenchmarkTracerMerge(b *testing.B) {
	const jobs, spans = 500, 100
	traces := make([]*Tracer, jobs)
	for j := range traces {
		tr := New(sim.NewEngine())
		for i := 0; i < spans; i++ {
			tr.Add(Span{Name: "t", Category: "task", Resource: "dev", Start: sim.Time(i), End: sim.Time(i + 1)})
		}
		tr.Count("jobs", 1)
		traces[j] = tr
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		session := New(sim.NewEngine())
		for _, tr := range traces {
			session.Merge(tr)
		}
	}
}
