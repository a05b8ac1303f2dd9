package experiments

import (
	"context"
	"fmt"
	"strings"

	"legato/internal/engine"
	"legato/internal/fpga"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/mirror"
	"legato/internal/nn"
	"legato/internal/obs"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// --- E6: Smart Mirror --------------------------------------------------

// Mirror runs the Sec. VI comparison: workstation baseline vs optimised
// edge server.
func Mirror(frames int, seed int64) ([]*mirror.Result, error) {
	ws, err := mirror.Evaluate(mirror.WorkstationConfig(), frames, seed)
	if err != nil {
		return nil, err
	}
	ecfg, err := mirror.EdgeConfig()
	if err != nil {
		return nil, err
	}
	edge, err := mirror.Evaluate(ecfg, frames, seed+1)
	if err != nil {
		return nil, err
	}
	return []*mirror.Result{ws, edge}, nil
}

// --- E8: undervolted ML ------------------------------------------------

// MLRow is one voltage point of the ML-resilience sweep.
type MLRow struct {
	Voltage       float64
	Accuracy      float64
	FaultsPerMbit float64
	SavingPercent float64
}

// UndervoltML trains the quantised MLP, deploys it to a VC707-class board
// (the highest published crash-point fault density, 652 faults/Mbit) and
// sweeps VCCBRAM, reporting accuracy vs power saving (Sec. III-C). The
// model is sized so the BRAM fault map meaningfully intersects the weight
// image.
func UndervoltML(seed int64) ([]MLRow, float64, error) {
	X, y := nn.Blobs(2000, 64, 8, 3.2, seed)
	trainX, trainY := X[:1600], y[:1600]
	testX, testY := X[1600:], y[1600:]
	m := nn.NewMLP(64, 256, 8, seed+1)
	m.Train(trainX, trainY, 6, 0.01, seed+2)
	q := m.Quantise()
	baseline := q.Accuracy(testX, testY)

	p := fpga.VC707()
	b := fpga.NewBoard(p, seed+3)
	if err := q.StoreToBRAM(b); err != nil {
		return nil, 0, err
	}
	var rows []MLRow
	// Integer stepping avoids float drift so the crash-edge point (max
	// fault density) is always measured.
	steps := int((p.VNom-p.VCrash)/0.02 + 0.5)
	for i := 0; i <= steps; i++ {
		v := p.VNom - float64(i)*0.02
		if v < p.VCrash {
			v = p.VCrash
		}
		b.SetVCCBRAM(v)
		if !b.Done() {
			break
		}
		deployed, err := nn.LoadFromBRAM(q, b)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, MLRow{
			Voltage:       v,
			Accuracy:      deployed.Accuracy(testX, testY),
			FaultsPerMbit: b.FaultsPerMbit(),
			SavingPercent: b.PowerSavingPercent(),
		})
	}
	return rows, baseline, nil
}

// MLTable renders the sweep.
func MLTable(rows []MLRow, baseline float64) string {
	var sb strings.Builder
	sb.WriteString("Sec. III-C — NN inference accuracy under BRAM undervolting (VC707)\n")
	fmt.Fprintf(&sb, "baseline int8 accuracy: %.3f\n", baseline)
	fmt.Fprintf(&sb, "%8s %10s %14s %10s\n", "V", "accuracy", "faults/Mbit", "saving %")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8.2f %10.3f %14.1f %10.1f\n",
			r.Voltage, r.Accuracy, r.FaultsPerMbit, r.SavingPercent)
	}
	return sb.String()
}

// --- E9: selective replication ------------------------------------------

// ReplicationRow is one strategy's outcome.
type ReplicationRow struct {
	Mode           string
	TaintedOutputs int
	EnergyJ        float64
	Detected       int
	Injected       int
}

// Replication runs the selective-replication study: a wide job set with a
// critical fraction, under each strategy.
func Replication(jobs int, criticalEvery int, seed int64) ([]ReplicationRow, error) {
	model := ft.SDCModel{hw.CPUx86: 0.01, hw.CPUARM: 0.01, hw.GPU: 0.015, hw.FPGA: 0.02}
	var rows []ReplicationRow
	for _, mode := range []ft.Mode{ft.NoReplication, ft.SelectiveCritical, ft.ReplicateAll} {
		c := ft.NewCampaign(mode, model, nil, seed)
		for i := 0; i < jobs; i++ {
			j := &ft.Job{Name: "job", Gops: 10, Critical: criticalEvery > 0 && i%criticalEvery == 0}
			if err := c.Add(j); err != nil {
				return nil, err
			}
		}
		c.Run()
		rows = append(rows, ReplicationRow{
			Mode:           mode.String(),
			TaintedOutputs: c.TaintedOutputs,
			EnergyJ:        c.EnergyJ,
			Detected:       c.SDCsDetected,
			Injected:       c.SDCsInjected,
		})
	}
	return rows, nil
}

// ReplicationTable renders the study.
func ReplicationTable(rows []ReplicationRow) string {
	var sb strings.Builder
	sb.WriteString("Sec. I — selective replication: reliability vs energy\n")
	fmt.Fprintf(&sb, "%-20s %9s %9s %10s %12s\n", "mode", "injected", "detected", "tainted", "energy (J)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %9d %9d %10d %12.1f\n",
			r.Mode, r.Injected, r.Detected, r.TaintedOutputs, r.EnergyJ)
	}
	return sb.String()
}

// --- E4: MTBF sustainability ---------------------------------------------

// MTBF computes the Daly-model improvement factor from the measured Fig. 6
// checkpoint/recovery costs.
func MTBF(fig6 *Fig6Result, perProcGB float64, refMTBFHours float64) (factor float64, err error) {
	rows := fig6.Rows[perProcGB]
	if len(rows) == 0 {
		return 0, fmt.Errorf("experiments: no Fig. 6 rows for %v GB", perProcGB)
	}
	r := rows[0]
	initial := ft.DalyModel{CkptSeconds: r.CkptInitial, RestartSeconds: r.RecInitial}
	async := ft.DalyModel{CkptSeconds: r.CkptAsync, RestartSeconds: r.RecAsync}
	return ft.MTBFImprovement(initial, async, refMTBFHours*3600), nil
}

// --- E10: XiTAO elasticity ablation ---------------------------------------

// XiTAORow is one width rule's outcome on the mixed DAG.
type XiTAORow struct {
	Policy      string
	MakespanSec float64
	// Efficiency is useful core-seconds (the serial work) over allocated
	// core-seconds (width × span): how little of the allocation Amdahl
	// wasted, the interference-freedom metric.
	Efficiency float64
}

// xitaoCoreGOPS is the per-core throughput of E10's CPU.
const xitaoCoreGOPS = 10

// xitaoMix is E10's mixed DAG: a few wide, mostly parallel tasks and more
// narrow, mostly serial ones, all ready at once.
var xitaoMix = []struct {
	name       string
	count      int
	gops, frac float64
}{
	{"wide", 3, 200, 0.95},
	{"narrow", 4, 40, 0.1},
}

// XiTAOElasticity runs the mixed DAG under XiTAO's three width rules,
// expressed as moldable-task width bounds: elastic (1..cores), fixed-wide
// (cores..cores) and fixed-1 (1..1). Each rule is one engine job on a
// single cores-core CPU of xitaoCoreGOPS per core.
func XiTAOElasticity(cores int) ([]XiTAORow, error) {
	rules := []struct {
		name     string
		min, max int
	}{
		{"elastic", 1, cores},
		{"fixed-wide", cores, cores},
		{"fixed-1", 1, 1},
	}
	rows := make([]XiTAORow, 0, len(rules))
	for _, rule := range rules {
		row, err := xitaoRun(rule.name, rule.min, rule.max, cores)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// xitaoRun executes the mixed DAG with every task molded in [min, max]
// cores and reads each task's width from its TaskPlaced event.
func xitaoRun(policy string, minW, maxW, cores int) (XiTAORow, error) {
	spec := hw.XeonD()
	spec.Cores, spec.GOPS = cores, xitaoCoreGOPS*float64(cores)
	bus := obs.NewBus()
	widths := map[string]int{}
	bus.Observe(func(ev obs.Event) {
		if ev.Kind == obs.TaskPlaced {
			widths[ev.Task] = int(ev.Value)
		}
	})
	e, err := engine.New(engine.Config{Workers: 1, Fleet: []*hw.Device{{ID: "cpu", Spec: spec}}, Bus: bus})
	if err != nil {
		return XiTAORow{}, err
	}
	ctx := context.Background()
	res, runErr := xitaoJob(ctx, e, policy, minW, maxW)
	if err := e.Shutdown(ctx); err != nil {
		return XiTAORow{}, err
	}
	if runErr != nil {
		return XiTAORow{}, runErr
	}
	useful, allocated := 0.0, 0.0
	for _, m := range xitaoMix {
		useful += float64(m.count) * m.gops / xitaoCoreGOPS
	}
	for _, rec := range res.Records {
		allocated += float64(widths[rec.Name]) * sim.ToSeconds(rec.End-rec.Start)
	}
	row := XiTAORow{Policy: policy, MakespanSec: sim.ToSeconds(res.Makespan)}
	if allocated > 0 {
		row.Efficiency = useful / allocated
	}
	return row, nil
}

// xitaoJob submits the mixed DAG as one job and waits for it.
func xitaoJob(ctx context.Context, e *engine.Engine, policy string, minW, maxW int) (*taskrt.Result, error) {
	j, err := e.NewJob(policy)
	if err != nil {
		return nil, err
	}
	for _, m := range xitaoMix {
		for i := 0; i < m.count; i++ {
			if err := j.Runtime().Submit(taskrt.Task{
				Name: fmt.Sprintf("%s-%d", m.name, i), Gops: m.gops, Cores: minW,
				Mold: &taskrt.Moldable{MaxCores: maxW, ParallelFrac: m.frac},
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := e.Submit(ctx, j); err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// XiTAOTable renders the ablation.
func XiTAOTable(rows []XiTAORow) string {
	var sb strings.Builder
	sb.WriteString("Sec. II-C — XiTAO elastic-width ablation (8 cores, mixed DAG)\n")
	fmt.Fprintf(&sb, "%-12s %12s %12s\n", "policy", "makespan s", "efficiency")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %12.2f %12.2f\n", r.Policy, r.MakespanSec, r.Efficiency)
	}
	return sb.String()
}

// --- E7: RECS|BOX topology -------------------------------------------------

// RECSBoxInventory builds the standard chassis and renders its population
// (Figs. 3-4 structural reproduction).
func RECSBoxInventory() (string, error) {
	box, err := hw.StandardCloudBox("recs0")
	if err != nil {
		return "", err
	}
	if err := box.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figs. 3-4 — RECS|BOX population\n")
	fmt.Fprintf(&sb, "%-36s %-10s %8s\n", "microserver", "class", "idle W")
	for _, ms := range box.Microservers() {
		fmt.Fprintf(&sb, "%-36s %-10s %8.1f\n",
			ms.ID, ms.Device.Spec.Class, ms.Device.Spec.IdleWatts)
	}
	fmt.Fprintf(&sb, "microservers: %d/%d, carriers: %d/%d, idle chassis power %.1f W\n",
		box.CountMicroservers(), hw.MaxMicroservers, len(box.Carriers), hw.MaxCarriers,
		box.IdlePower())
	return sb.String(), nil
}
