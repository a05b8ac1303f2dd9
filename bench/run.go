package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"legato"
	"legato/internal/obs"
)

// config is one invocation of a single workload.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	jobs    int    // when > 0, the session and fleet-pass size of the tests' tiny runs
	outDir  string // traced-run artifacts
}

// setupReps is how many NewSystem+Close pairs precede each timed session;
// setup_s is their median.
const setupReps = 8

// runBudget bounds a whole invocation: a job still running by then is
// cancelled and counted as failed.
const runBudget = 150 * time.Second

// session is what one NewSystem … Close cycle measured.
type session struct {
	setup    time.Duration // median NewSystem+Close just before the session
	wall     time.Duration // NewSystem call to Close return
	cpu      time.Duration // process user+sys over the same window
	alloc    uint64        // MemStats.TotalAlloc delta
	gcCycles uint32
	gcCPU    float64 // runtime/metrics GC CPU seconds
	allCPU   float64 // runtime/metrics total CPU seconds

	jobs, failed, submitted, records int
	jobWalls                         []time.Duration
	taskLats                         []time.Duration // virtual, non-shed records
	st                               legato.SessionStats

	evlogLen, observed int
	closeWall          time.Duration

	// Fleet pass only.
	exportBytes int64
	exportWall  time.Duration
	heapLive    uint64 // HeapAlloc after two GCs once every job finished

	checks []string // failed correctness checks
}

func (s *session) fail(format string, args ...any) {
	s.checks = append(s.checks, fmt.Sprintf(format, args...))
}

func (s *session) rate() float64 { return ratio(float64(s.records), s.wall.Seconds()) }

// pending is one in-flight job of the closed loop.
type pending struct {
	spec    *jobSpec
	begin   time.Time // NewJob call
	built   time.Time // NewJob return, build start
	start   time.Time // Start call
	started time.Time // Start return
	end     time.Time // Wait return
	rep     *legato.Report
	err     error
	done    chan struct{}
}

// runner holds what every session of one invocation shares.
type runner struct {
	cfg  config
	capW float64
	ctx  context.Context
}

// results is what one invocation measured.
type results struct {
	fleet  *session   // the untimed fleet pass over every generated job
	plain  []*session // timed, untraced sessions
	traced []*session
	probe  *probe
	shares map[string]float64

	fleetPeakW float64 // the cloud fleet's nominal peak draw
}

// runWorkload runs the fleet pass, then the timed phase. The fleet pass is
// one untimed session over all the generated jobs: it warms the process up
// and yields the fleet-time metrics. Timed sessions replay the first
// session-size jobs, so every one of them does the same work, and they run
// until the time is up, at least one of each kind and each to its end.
// Untraced, every timed session is plain. Traced, plain and traced sessions
// alternate under the CPU profiler, whose samples carry the session kind as
// a label, so the two kinds see the same host conditions.
//
// A serial workload (one engine worker) runs on one P (GOMAXPROCS=1): it
// has no parallelism to lose, and its goroutine handoffs then cost CPU work
// instead of OS wake-ups and spinning, whose latency on a small shared host
// spreads host-time metrics between runs. Workloads with more workers run
// at the process default, as callers run the library.
func runWorkload(cfg config) (*results, error) {
	if cfg.w.workers == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	poolSize, jobs := cfg.w.pool, cfg.w.jobs
	if cfg.jobs > 0 {
		poolSize, jobs = cfg.jobs, cfg.jobs
	}
	pool := genJobs(cfg.w, cfg.seed, poolSize)
	r := &runner{cfg: cfg, ctx: ctx}
	out := &results{}
	var err error
	if out.fleetPeakW, err = fleetPeakW(); err != nil {
		return nil, err
	}
	r.capW = 0.6 * out.fleetPeakW
	if out.fleet, err = r.runSession(pool, nil, true); err != nil {
		return nil, fmt.Errorf("fleet pass: %w", err)
	}

	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var prof bytes.Buffer
	if cfg.trace {
		out.probe = newProbe(start)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for len(out.plain) == 0 || (cfg.trace && len(out.traced) == 0) || time.Now().Before(end) {
		var p *probe
		if cfg.trace && len(out.traced) < len(out.plain) {
			p = out.probe
		}
		setup, err := r.measureSetup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		s, err := r.runSession(pool[:jobs], p, false)
		if err != nil {
			return nil, err
		}
		s.setup = setup
		if p != nil {
			out.traced = append(out.traced, s)
		} else {
			out.plain = append(out.plain, s)
		}
	}
	if cfg.trace {
		pprof.StopCPUProfile()
		if out.shares, err = layerShares(prof.Bytes(), "plain"); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, "cpu-"+cfg.w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := out.probe.write(cfg.outDir, cfg.w.name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetPeakW is the cloud fleet's nominal peak draw.
func fleetPeakW() (float64, error) {
	sys, err := legato.NewSystem()
	if err != nil {
		return 0, err
	}
	peak := 0.0
	for _, d := range sys.Devices() {
		peak += float64(d.Spec.PeakWatts)
	}
	return peak, sys.Close(context.Background())
}

// options assembles one session's system options: the observed workload
// counts events with an observer of its own, and a traced session adds the
// probe's.
func (r *runner) options(count *atomic.Int64, p *probe) []legato.Option {
	opts := r.cfg.w.options(r.capW)
	if r.cfg.w.observed {
		opts = append(opts, legato.WithObserver(func(legato.Event) { count.Add(1) }))
	}
	if p != nil {
		opts = append(opts, legato.WithObserver(p.observe))
	}
	return opts
}

// measureSetup is the median wall time of NewSystem with the workload's
// options followed by Close.
func (r *runner) measureSetup() (time.Duration, error) {
	var count atomic.Int64
	opts := r.options(&count, nil)
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		t := time.Now()
		sys, err := legato.NewSystem(opts...)
		if err != nil {
			return 0, err
		}
		if err := sys.Close(r.ctx); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t)
	}
	return percentile(ds, 50), nil
}

// runSession runs one session of the closed loop over specs: at most
// `workers` jobs in flight, the generator waiting for the oldest before
// building the next. The fleet pass also times an export of the session,
// checks that an observed session's export decodes back to its event log,
// and weighs the live heap the finished session still holds.
func (r *runner) runSession(specs []jobSpec, p *probe, fleetPass bool) (*session, error) {
	w := r.cfg.w
	s := &session{}
	var count atomic.Int64
	if p != nil {
		p.beginSession()
	}
	if r.cfg.trace && !fleetPass {
		// Goroutines the session starts inherit the label.
		kind := "plain"
		if p != nil {
			kind = "traced"
		}
		pprof.SetGoroutineLabels(pprof.WithLabels(r.ctx, pprof.Labels("session", kind)))
		defer pprof.SetGoroutineLabels(r.ctx)
	}

	cpu0, ms0, rm0 := cpuTime(), memStats(), cpuMetrics()
	t0 := time.Now()
	sys, err := legato.NewSystem(r.options(&count, p)...)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.span("", "legato.NewSystem", t0, time.Now())
	}

	var queue, done []*pending
	for i := range specs {
		if len(queue) == w.workers {
			<-queue[0].done
			done = append(done, queue[0])
			queue = queue[1:]
		}
		q, err := r.startJob(sys, &specs[i], p)
		if err != nil {
			return nil, err
		}
		queue = append(queue, q)
	}
	for _, q := range queue {
		<-q.done
		done = append(done, q)
	}
	s.st = sys.Stats()
	if w.observed {
		if err := sys.ExportSession(io.Discard); err != nil {
			return nil, fmt.Errorf("export session: %w", err)
		}
	}
	tc := time.Now()
	if err := sys.Close(r.ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	t1 := time.Now()
	s.closeWall, s.wall = t1.Sub(tc), t1.Sub(t0)
	s.cpu = cpuTime() - cpu0
	ms1, rm1 := memStats(), cpuMetrics()
	s.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	s.gcCycles = ms1.NumGC - ms0.NumGC
	s.gcCPU, s.allCPU = rm1[0]-rm0[0], rm1[1]-rm0[1]

	// Everything below is outside the timed window.
	if p != nil {
		p.span("", "legato.Close", tc, t1)
	}
	for _, q := range done {
		s.jobs++
		s.submitted += len(q.spec.tasks)
		if q.err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "job %s: %v\n", q.spec.name, q.err)
			continue
		}
		s.jobWalls = append(s.jobWalls, q.end.Sub(q.begin))
		s.records += len(q.rep.Records)
		for _, rec := range q.rep.Records {
			if !rec.Shed {
				s.taskLats = append(s.taskLats, rec.End-rec.Start)
			}
		}
		if p != nil {
			p.finishJob(q)
		}
	}
	if w.observed {
		s.evlogLen, s.observed = len(sys.EventLog()), int(count.Load())
	}
	s.check(sys, w)
	if fleetPass {
		// The second GC empties sync.Pool caches, which survive one.
		runtime.GC()
		runtime.GC()
		s.heapLive = memStats().HeapAlloc
		var dump bytes.Buffer
		te := time.Now()
		if err := sys.ExportSession(&dump); err != nil {
			return nil, fmt.Errorf("export session: %w", err)
		}
		s.exportWall, s.exportBytes = time.Since(te), int64(dump.Len())
		if w.observed {
			s.roundTrip(sys, &dump)
		}
	}
	return s, nil
}

// startJob builds one job from its spec and starts it. A waiter goroutine
// stamps the Wait return, so a job's wall time excludes the generator's own
// wait for an older job; it ends when the job does, or when the run budget
// cancels it.
func (r *runner) startJob(sys *legato.System, spec *jobSpec, p *probe) (*pending, error) {
	if p != nil {
		p.register(spec.name)
	}
	q := &pending{spec: spec, done: make(chan struct{})}
	q.begin = time.Now()
	job, err := sys.NewJob(spec.name)
	if err != nil {
		return nil, fmt.Errorf("new job: %w", err)
	}
	q.built = time.Now()
	if err := spec.build(job); err != nil {
		return nil, err
	}
	if r.cfg.w.powerFaults {
		if err := job.Checkpoint(8, checkpointLevel); err != nil {
			return nil, err
		}
	}
	q.start = time.Now()
	if err := job.Start(r.ctx); err != nil {
		return nil, fmt.Errorf("start %s: %w", spec.name, err)
	}
	q.started = time.Now()
	go func() {
		q.rep, q.err = job.Wait(r.ctx)
		q.end = time.Now()
		close(q.done)
	}()
	return q, nil
}

// check runs the per-session correctness checks.
func (s *session) check(sys *legato.System, w *workload) {
	if s.records != s.st.TasksCompleted {
		s.fail("report records %d != Stats.TasksCompleted %d", s.records, s.st.TasksCompleted)
	}
	fleet := sys.Fleet()
	for _, id := range fleet.Devices() {
		if peak, capacity := fleet.Peak(id), fleet.Capacity(id); peak > capacity {
			s.fail("device %s peak %d cores > capacity %d", id, peak, capacity)
		}
	}
	if s.evlogLen != s.observed {
		s.fail("event log holds %d events, the observer counted %d", s.evlogLen, s.observed)
	}
	if !w.powerFaults {
		return
	}
	// The capped, faulty workload must exercise every mechanism it exists for.
	st := s.st
	if st.PeakDrawW > st.PowerCapW {
		s.fail("peak draw %.2f W > cap %.2f W", st.PeakDrawW, st.PowerCapW)
	}
	if st.PowerStalls == 0 {
		s.fail("no placement stalled on the power cap")
	}
	if st.HedgesWon == 0 {
		s.fail("no hedge won")
	}
	if st.DevicesLost < 1 {
		s.fail("no device was lost")
	}
	if st.TasksRetried+st.TasksRestored == 0 {
		s.fail("no task was retried or restored")
	}
}

// roundTrip requires the session's export to decode back to its event log.
func (s *session) roundTrip(sys *legato.System, export io.Reader) {
	dump, err := obs.DecodeSession(export)
	if err != nil {
		s.fail("session dump does not decode: %v", err)
		return
	}
	log := sys.EventLog()
	if len(dump.Events) != len(log) {
		s.fail("session dump holds %d events, the log %d", len(dump.Events), len(log))
		return
	}
	for i := range log {
		if dump.Events[i] != log[i] {
			s.fail("session dump event %d is %v, the log has %v", i, dump.Events[i], log[i])
			return
		}
	}
}

// checkRun collects every session's failed checks, and requires a serial
// workload to give bit-identical fleet output in every timed session.
func checkRun(w *workload, res *results) []string {
	var bad []string
	for _, c := range res.fleet.checks {
		bad = append(bad, "fleet pass: "+c)
	}
	timed := append(append([]*session(nil), res.plain...), res.traced...)
	for i, s := range timed {
		for _, c := range s.checks {
			bad = append(bad, fmt.Sprintf("session %d: %s", i, c))
		}
	}
	if w.workers == 1 {
		for _, s := range timed[1:] {
			if a, b := fleet(timed[0]), fleet(s); a != b {
				bad = append(bad, fmt.Sprintf("fleet output differs between timed sessions: %+v vs %+v", a, b))
				break
			}
		}
	}
	return bad
}

// fleetOut is one session's fleet-time output.
type fleetOut struct {
	makespan, energy, p99 float64
}

func fleet(s *session) fleetOut {
	return fleetOut{
		makespan: s.st.SessionMakespan.Seconds(),
		energy:   s.st.PlatformEnergyJ,
		p99:      percentile(s.taskLats, 99).Seconds(),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuMetrics returns the runtime's GC and total CPU-seconds estimates.
func cpuMetrics() [2]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var out [2]float64
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// percentile is the nearest-rank q-th percentile.
func percentile[T time.Duration | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
