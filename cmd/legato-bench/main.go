// legato-bench regenerates every table and figure of the paper's
// evaluation in one run, printing paper-vs-measured tables — the source of
// the numbers recorded in EXPERIMENTS.md.
//
// Usage:
//
//	legato-bench [-quick] [-json]
//
// With -json, each section additionally writes a machine-readable
// BENCH_<section>.json record (name, ops, ns_per_op, energy_j, p99_s)
// next to the working directory, for trend tracking across revisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"legato/internal/experiments"
	"legato/internal/mirror"
	"legato/internal/sim"
)

func section(title string) {
	fmt.Printf("\n========================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("========================================================================\n")
}

// benchRecord is the machine-readable summary of one section written by
// -json. ns_per_op is host wall-clock per workload unit (the simulator is
// what is being benchmarked here, so wall time is the honest measure);
// energy_j and p99_s are fleet-side results where the experiment has them.
type benchRecord struct {
	Name    string  `json:"name"`
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
	EnergyJ float64 `json:"energy_j,omitempty"`
	P99S    float64 `json:"p99_s,omitempty"`
}

// recorder times sections and flushes one BENCH_<name>.json per record.
type recorder struct {
	enabled bool
	t0      time.Time
	records []benchRecord
}

func (r *recorder) start() { r.t0 = time.Now() }

func (r *recorder) add(name string, ops int, energyJ, p99s float64) {
	if !r.enabled {
		return
	}
	if ops < 1 {
		ops = 1
	}
	r.records = append(r.records, benchRecord{
		Name:    name,
		Ops:     ops,
		NsPerOp: float64(time.Since(r.t0).Nanoseconds()) / float64(ops),
		EnergyJ: energyJ,
		P99S:    p99s,
	})
}

func (r *recorder) flush() error {
	for _, rec := range r.records {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_"+rec.Name+".json", append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	jsonOut := flag.Bool("json", false, "write BENCH_<section>.json records")
	flag.Parse()
	rec := recorder{enabled: *jsonOut}

	nodes := []int{1, 4, 8, 16}
	sizes := []float64{16, 32}
	frames := 600
	jobs := 600
	if *quick {
		nodes = []int{1, 4}
		sizes = []float64{16}
		frames = 200
		jobs = 200
	}

	section("E7 (Figs. 3-4): RECS|BOX platform")
	rec.start()
	inv, err := experiments.RECSBoxInventory()
	if err != nil {
		log.Fatal(err)
	}
	rec.add("recsbox", 1, 0, 0)
	fmt.Print(inv)

	section("E1/E2 (Fig. 5): FPGA undervolting")
	rec.start()
	fig5, err := experiments.Fig5(1)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("fig5_undervolt", len(fig5.Rows), 0, 0)
	fmt.Print(fig5.Table())

	section("E3/E4 (Fig. 6): Heat2D checkpoint/restart + MTBF estimate")
	rec.start()
	fig6, err := experiments.Fig6(nodes, sizes)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("fig6_checkpoint", len(nodes)*len(sizes), 0, 0)
	fmt.Print(fig6.Table())
	factor, err := experiments.MTBF(fig6, sizes[0], 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTBF sustainability factor (Daly, 4h reference): %.1fx (paper: 7x)\n", factor)

	section("E5 (Fig. 7): HEATS energy/performance trade-off")
	rec.start()
	heats, err := experiments.HEATS(6)
	if err != nil {
		log.Fatal(err)
	}
	lastHEATS := heats.Rows[len(heats.Rows)-1]
	rec.add("heats", len(heats.Rows), lastHEATS.PlatformEnergyJ, 0)
	fmt.Print(heats.Table())

	section("E6 (Sec. VI): Smart Mirror")
	rec.start()
	mrows, err := experiments.Mirror(frames, 1)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("mirror", frames, 0, 0)
	fmt.Print(mirror.CompareTable(mrows))

	section("E8 (Sec. III-C): NN inference under undervolting")
	rec.start()
	mlRows, baseline, err := experiments.UndervoltML(2)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("undervolt_ml", len(mlRows), 0, 0)
	fmt.Print(experiments.MLTable(mlRows, baseline))

	section("E9 (Sec. I): selective replication")
	rec.start()
	rep, err := experiments.Replication(jobs, 5, 3)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("replication", jobs, 0, 0)
	fmt.Print(experiments.ReplicationTable(rep))

	section("E10 (Sec. II-C): XiTAO elasticity")
	rec.start()
	xt, err := experiments.XiTAOElasticity(8)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("xitao", len(xt), 0, 0)
	fmt.Print(experiments.XiTAOTable(xt))

	section("E11: concurrent multi-job engine throughput")
	widths := []int{1, 2, 4, 8}
	mjJobs := 8
	if *quick {
		widths = []int{1, 4}
		mjJobs = 4
	}
	rec.start()
	mj, err := experiments.MultiJob(widths, mjJobs)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("multijob", mjJobs*len(widths), mj[len(mj)-1].EnergyJ, 0)
	fmt.Print(experiments.MultiJobTable(mj))

	section("E12: resilient session under MTBF-driven device loss")
	rsJobs, rsWorkers := 8, 8
	if *quick {
		rsJobs, rsWorkers = 4, 4
	}
	rec.start()
	rs, err := experiments.Resilient(rsJobs, rsWorkers, 1)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("resilient", rsJobs, 0, 0)
	fmt.Print(experiments.ResilientTable(rs))

	section("E13: fleet power cap and energy-aware placement")
	pcJobs, pcWorkers := 8, 8
	if *quick {
		pcJobs, pcWorkers = 4, 4
	}
	rec.start()
	pc, err := experiments.PowerCap(pcJobs, pcWorkers)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("powercap", pcJobs, pc.CappedEnergyJ, 0)
	fmt.Print(experiments.PowerCapTable(pc))

	section("E14: tail latency under silent degradation, hedged vs unhedged")
	tlJobs, tlWorkers := 6, 4
	if *quick {
		tlJobs, tlWorkers = 4, 2
	}
	rec.start()
	tl, err := experiments.Tail(tlJobs, tlWorkers, 1)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("tail", tlJobs, tl.HedgedEnergyJ, sim.ToSeconds(tl.HedgedP99))
	fmt.Print(experiments.TailTable(tl))

	section("Ablation: SECDED ECC mitigation for sub-guardband operation")
	rec.start()
	eccRows, err := experiments.ECCMitigation(64<<10, 4)
	if err != nil {
		log.Fatal(err)
	}
	rec.add("ecc", len(eccRows), 0, 0)
	fmt.Print(experiments.ECCTable(eccRows))

	if err := rec.flush(); err != nil {
		log.Fatal(err)
	}
}
