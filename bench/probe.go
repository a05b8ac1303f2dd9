package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"legato"
)

// span is one wall-clock interval of the traced run: a legato call the
// benchmark made, or the stretch between such a call and an event the probe
// observer stamped. Spans of one job share Session and Job; session-level
// spans have no Job. Times are microseconds since the run began.
type span struct {
	Session int     `json:"session"`
	Job     string  `json:"job,omitempty"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
}

// jobEvents is the wall time of a job's first execution event (anything
// after TaskQueued) and of its last event.
type jobEvents struct{ first, last time.Time }

// probe is the traced run's instrumentation, all of it outside the
// program: wall-clock spans around the benchmark's legato calls, and an
// observer that stamps wall time on each event.
type probe struct {
	t0      time.Time
	session int
	spans   []span

	mu     sync.Mutex // the observer runs on job goroutines
	jobs   map[string]*jobEvents
	kinds  [32]int // events by legato.EventKind
	events int

	newJob, report, queueWait []time.Duration
	build, run                time.Duration
}

func newProbe(t0 time.Time) *probe { return &probe{t0: t0} }

// observe is the probe's WithObserver callback.
func (p *probe) observe(e legato.Event) {
	now := time.Now()
	p.mu.Lock()
	if int(e.Kind) < len(p.kinds) {
		p.kinds[e.Kind]++
	}
	p.events++
	if je := p.jobs[e.Job]; je != nil {
		if je.first.IsZero() && e.Kind != legato.EvTaskQueued {
			je.first = now
		}
		je.last = now
	}
	p.mu.Unlock()
}

// beginSession resets the per-job table: job names repeat across sessions.
func (p *probe) beginSession() {
	p.session++
	p.mu.Lock()
	p.jobs = make(map[string]*jobEvents)
	p.mu.Unlock()
}

// register adds a job before NewJob, so its build-time events are seen.
func (p *probe) register(name string) {
	p.mu.Lock()
	p.jobs[name] = &jobEvents{}
	p.mu.Unlock()
}

func (p *probe) span(job, name string, start, end time.Time) {
	us := func(t time.Time) float64 { return float64(t.Sub(p.t0)) / float64(time.Microsecond) }
	p.spans = append(p.spans, span{Session: p.session, Job: job, Name: name, Start: us(start), End: us(end)})
}

// finishJob folds a finished job into the layer timings.
func (p *probe) finishJob(q *pending) {
	name := q.spec.name
	p.mu.Lock()
	je := *p.jobs[name]
	p.mu.Unlock()
	p.span(name, "legato.NewJob", q.begin, q.built)
	p.span(name, "legato.build", q.built, q.start)
	p.span(name, "legato.Start", q.start, q.started)
	p.span(name, "legato.Wait", q.started, q.end)
	p.newJob = append(p.newJob, q.built.Sub(q.begin))
	p.build += q.start.Sub(q.built)
	if je.first.IsZero() {
		return // the job never executed anything
	}
	p.span(name, "engine.queue", q.start, je.first)
	p.span(name, "taskrt.run", je.first, je.last)
	p.span(name, "legato.report", je.last, q.end)
	p.queueWait = append(p.queueWait, nonNegative(je.first.Sub(q.start)))
	p.run += je.last.Sub(je.first)
	p.report = append(p.report, nonNegative(q.end.Sub(je.last)))
}

func nonNegative(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// write stores the spans as JSON in dir.
func (p *probe) write(dir, workload string) error {
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, p.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
