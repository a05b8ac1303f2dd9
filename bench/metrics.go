package main

import (
	"sort"
	"time"

	"legato"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// totals sums the counters of a set of sessions.
type totals struct {
	wall, cpu                        time.Duration
	alloc                            uint64
	gcCycles                         uint32
	gcCPU, allCPU                    float64
	jobs, failed, submitted, records int
	jobWalls                         []time.Duration
	st                               legato.SessionStats // summed counters; PeakDrawW/PowerCapW are maxima
	evlogLen                         uint64
	closeWalls                       []time.Duration
}

func sum(ss []*session) totals {
	var t totals
	for _, s := range ss {
		t.wall += s.wall
		t.cpu += s.cpu
		t.alloc += s.alloc
		t.gcCycles += s.gcCycles
		t.gcCPU += s.gcCPU
		t.allCPU += s.allCPU
		t.jobs += s.jobs
		t.failed += s.failed
		t.submitted += s.submitted
		t.records += s.records
		t.jobWalls = append(t.jobWalls, s.jobWalls...)
		t.evlogLen += uint64(s.evlogLen)
		t.closeWalls = append(t.closeWalls, s.closeWall)

		st := &t.st
		st.AdmissionStalls += s.st.AdmissionStalls
		st.TasksRetried += s.st.TasksRetried
		st.TasksRestored += s.st.TasksRestored
		st.Checkpoints += s.st.Checkpoints
		st.DevicesLost += s.st.DevicesLost
		st.PlatformEnergyJ += s.st.PlatformEnergyJ
		st.PowerStalls += s.st.PowerStalls
		st.GovernorRescales += s.st.GovernorRescales
		st.HedgesLaunched += s.st.HedgesLaunched
		st.HedgesWon += s.st.HedgesWon
		st.HedgeWastedJ += s.st.HedgeWastedJ
		st.DeadlineMisses += s.st.DeadlineMisses
		st.TasksShed += s.st.TasksShed
		st.PeakDrawW = max(st.PeakDrawW, s.st.PeakDrawW)
		st.PowerCapW = max(st.PowerCapW, s.st.PowerCapW)
	}
	return t
}

func (t totals) rate() float64 { return ratio(float64(t.records), t.wall.Seconds()) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quiet returns the quarter of the sessions with the highest task rate, at
// least one. Timed sessions all do the same work, so the fastest are the
// least disturbed: on a host shared with other tenants, memory-bound code
// slows by up to half for seconds at a time, and the mix of such stretches,
// not the program, would otherwise set the numbers.
func quiet(ss []*session) []*session {
	s := append([]*session(nil), ss...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].rate() > s[j].rate() })
	return s[:max(1, len(s)/4)]
}

// endToEnd derives the user-visible metrics: host time from the quiet timed
// sessions, allocation from every timed session, fleet time from the fleet
// pass.
func endToEnd(res *results) []metric {
	quietest := quiet(res.plain)
	q := sum(quietest)
	rec := float64(q.records)
	var setups []time.Duration
	for _, s := range quietest {
		setups = append(setups, s.setup)
	}
	all := sum(res.plain)
	f := fleet(res.fleet)
	return []metric{
		{"tasks_per_s", q.rate(), "tasks/s"},
		{"job_wall_p50_ms", ms(percentile(q.jobWalls, 50)), "ms"},
		{"job_wall_p90_ms", ms(percentile(q.jobWalls, 90)), "ms"},
		{"cpu_us_per_task", ratio(us(q.cpu), rec), "us"},
		{"alloc_bytes_per_task", ratio(float64(all.alloc), float64(all.records)), "B"},
		{"heap_live_mb", float64(res.fleet.heapLive) / (1 << 20), "MB"},
		{"setup_s", percentile(setups, 50).Seconds(), "s"},
		{"fleet_makespan_s", f.makespan, "virtual_s"},
		{"fleet_energy_j", f.energy, "J"},
		{"fleet_task_p99_s", f.p99, "virtual_s"},
	}
}

// cpuLayers are the layers CPU-profile samples are charged to: the
// program's packages by module name, plus gc and other.
var cpuLayers = []string{"legato", "engine", "taskrt", "sim", "power", "obs", "trace", "monitor", "faults", "secure", "hw", "gc", "other"}

// perLayer derives the layer metrics from the traced sessions, their probe
// and CPU profile.
func perLayer(res *results) []metric {
	t, p := sum(res.traced), res.probe
	rec, sub := float64(t.records), float64(t.submitted)
	perK := func(n float64) float64 { return ratio(1000*n, rec) }
	st := t.st
	peakOverCap := ratio(st.PeakDrawW, st.PowerCapW)
	if st.PowerCapW == 0 {
		peakOverCap = ratio(st.PeakDrawW, res.fleetPeakW)
	}
	admitted, refused := float64(p.kinds[legato.EvPowerAdmitted]), float64(p.kinds[legato.EvPowerRefused])
	admitRatio := 1.0
	if admitted+refused > 0 {
		admitRatio = admitted / (admitted + refused)
	}
	out := []metric{
		{"legato.newjob_us", us(percentile(p.newJob, 50)), "us"},
		{"legato.build_us_per_task", ratio(us(p.build), sub), "us"},
		{"legato.report_us", us(percentile(p.report, 50)), "us"},
		{"legato.close_ms", ms(percentile(t.closeWalls, 50)), "ms"},
		{"legato.dmr_expansion", ratio(rec, sub), "ratio"},
		{"engine.queue_wait_us_p50", us(percentile(p.queueWait, 50)), "us"},
		{"engine.admission_stalls_per_ktask", perK(float64(st.AdmissionStalls)), "count"},
		{"taskrt.run_us_per_task", ratio(us(p.run), rec), "us"},
		{"taskrt.events_per_task", ratio(float64(p.events), rec), "count"},
		{"taskrt.hedges_per_ktask", perK(float64(st.HedgesLaunched)), "count"},
		{"taskrt.hedge_win_ratio", ratio(float64(st.HedgesWon), float64(st.HedgesLaunched)), "ratio"},
		{"taskrt.hedge_waste_share", ratio(st.HedgeWastedJ, st.PlatformEnergyJ), "ratio"},
		{"taskrt.deadline_misses_per_ktask", perK(float64(st.DeadlineMisses)), "count"},
		{"taskrt.shed_per_ktask", perK(float64(st.TasksShed)), "count"},
		{"power.admit_ratio", admitRatio, "ratio"},
		{"power.stalls_per_ktask", perK(float64(st.PowerStalls)), "count"},
		{"power.rescales_per_ktask", perK(float64(st.GovernorRescales)), "count"},
		{"power.peak_over_cap", peakOverCap, "ratio"},
		{"faults.retries_per_ktask", perK(float64(st.TasksRetried)), "count"},
		{"faults.restores_per_ktask", perK(float64(st.TasksRestored)), "count"},
		{"faults.checkpoints_per_job", ratio(float64(st.Checkpoints), float64(t.jobs)), "count"},
		{"faults.devices_lost", ratio(float64(st.DevicesLost), float64(len(res.traced))), "count"},
		{"obs.export_ms", ms(res.fleet.exportWall), "ms"},
		{"obs.export_mb", float64(res.fleet.exportBytes) / (1 << 20), "MB"},
		{"obs.events_per_task", ratio(float64(t.evlogLen), rec), "count"},
		{"runtime.gc_cpu_fraction", ratio(t.gcCPU, t.allCPU), "ratio"},
		{"runtime.gc_cycles_per_ktask", perK(float64(t.gcCycles)), "count"},
	}
	for _, l := range cpuLayers {
		out = append(out, metric{"cpu." + l + ".share", res.shares[l], "ratio"})
	}
	overhead := ratio(sum(quiet(res.plain)).rate(), sum(quiet(res.traced)).rate())
	return append(out, metric{"bench.trace_overhead", overhead, "ratio"})
}
