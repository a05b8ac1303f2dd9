package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// heatsPolicies orders the E5 sweep from performance-first to energy-first.
var heatsPolicies = []taskrt.Policy{taskrt.MinTime, taskrt.MinEDP, taskrt.MinEnergy}

// HEATSRow is one placement policy of the trade-off sweep (Fig. 7
// behaviour / [10]).
type HEATSRow struct {
	Policy      taskrt.Policy
	MakespanSec float64
	// TaskEnergyJ sums the dynamic energy of the batch's tasks.
	TaskEnergyJ float64
	// PlatformEnergyJ adds the fleet's idle draw over the makespan.
	PlatformEnergyJ float64
	// Placements counts tasks per device, in fleet order (heatsFleetIDs).
	Placements []int
}

// HEATSResult is the policy sweep.
type HEATSResult struct {
	Rows []HEATSRow
}

// heatsFleetIDs names the mixed x86+ARM fleet E5 schedules onto.
var heatsFleetIDs = []string{"x86-0", "x86-1", "arm-0", "arm-1"}

// heatsFleet builds 2 Xeon-D + 2 ARMv8 server nodes on the given clock.
func heatsFleet(se *sim.Engine) ([]*hw.Device, error) {
	devices := make([]*hw.Device, len(heatsFleetIDs))
	for i, id := range heatsFleetIDs {
		spec := hw.XeonD()
		if i >= 2 {
			spec = hw.ARMv8Server()
		}
		devices[i] = hw.NewDevice(se, id, spec)
	}
	return devices, nil
}

// HEATS runs the heterogeneity/energy-aware scheduling experiment: a batch
// of `tasks` independent 200 Gops, 4-core tasks as one engine job on a
// mixed x86+ARM fleet, once under each placement policy, from
// performance-first (MinTime) to energy-first (MinEnergy).
func HEATS(tasks int) (*HEATSResult, error) {
	res := &HEATSResult{}
	for _, p := range heatsPolicies {
		row, err := heatsRun(p, tasks)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// heatsRun executes the batch under one policy.
func heatsRun(p taskrt.Policy, tasks int) (HEATSRow, error) {
	e, err := engine.New(engine.Config{Workers: 1, Policy: p, NewPlatform: heatsFleet})
	if err != nil {
		return HEATSRow{}, err
	}
	ctx := context.Background()
	out, runErr := heatsBatch(ctx, e, tasks)
	if err := e.Shutdown(ctx); err != nil {
		return HEATSRow{}, err
	}
	if runErr != nil {
		return HEATSRow{}, runErr
	}
	st := e.Stats()
	row := HEATSRow{
		Policy:          p,
		MakespanSec:     sim.ToSeconds(out.Makespan),
		TaskEnergyJ:     float64(out.EnergyJ),
		PlatformEnergyJ: st.PlatformEnergyJ,
		Placements:      make([]int, len(heatsFleetIDs)),
	}
	for _, r := range out.Records {
		row.Placements[slices.Index(heatsFleetIDs, r.Device)]++
	}
	return row, nil
}

// heatsBatch submits the batch as one job and waits for it.
func heatsBatch(ctx context.Context, e *engine.Engine, tasks int) (*taskrt.Result, error) {
	j, err := e.NewJob("batch")
	if err != nil {
		return nil, err
	}
	for i := 0; i < tasks; i++ {
		if err := j.Runtime().Submit(taskrt.Task{
			Name: fmt.Sprintf("task-%d", i), Gops: 200, Cores: 4,
		}); err != nil {
			return nil, err
		}
	}
	if err := e.Submit(ctx, j); err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// EnergySavingPercent compares the task energy of the last row
// (energy-first) against the first (performance-first).
func (r *HEATSResult) EnergySavingPercent() float64 {
	if len(r.Rows) < 2 {
		return 0
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.TaskEnergyJ == 0 {
		return 0
	}
	return (1 - last.TaskEnergyJ/first.TaskEnergyJ) * 100
}

// Table renders the sweep.
func (r *HEATSResult) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 / [10] — HEATS energy-performance trade-off (taskrt policy sweep)\n")
	fmt.Fprintf(&sb, "%-10s %12s %12s %16s   %s\n",
		"policy", "makespan s", "task E (J)", "platform E (J)", "tasks on "+strings.Join(heatsFleetIDs, "/"))
	for _, row := range r.Rows {
		counts := make([]string, len(row.Placements))
		for i, n := range row.Placements {
			counts[i] = fmt.Sprint(n)
		}
		fmt.Fprintf(&sb, "%-10s %12.2f %12.1f %16.1f   %s\n",
			row.Policy, row.MakespanSec, row.TaskEnergyJ, row.PlatformEnergyJ, strings.Join(counts, "/"))
	}
	fmt.Fprintf(&sb, "energy-first saves %.1f%% task energy vs performance-first\n",
		r.EnergySavingPercent())
	return sb.String()
}
