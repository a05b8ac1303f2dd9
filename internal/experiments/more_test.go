package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"legato/internal/taskrt"
)

func TestHEATSExperiment(t *testing.T) {
	res, err := HEATS(6)
	if err != nil {
		t.Fatal(err)
	}
	// Per policy: tasks on x86-0/x86-1/arm-0/arm-1, makespan, task energy.
	// Energy-first fills both ARM nodes, then places the two tasks still
	// queued on x86-0 rather than waiting for ARM.
	want := []struct {
		policy     taskrt.Policy
		placements []int
		makespan   float64
		taskJ      float64
	}{
		{taskrt.MinTime, []int{4, 2, 0, 0}, 2.00, 195.0},
		{taskrt.MinEDP, []int{4, 2, 0, 0}, 2.00, 195.0},
		{taskrt.MinEnergy, []int{2, 0, 2, 2}, 2.78, 165.0},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	const idleW = 2*25 + 2*6 // 2 Xeon-D + 2 ARMv8 idle floor
	for i, w := range want {
		row := res.Rows[i]
		if row.Policy != w.policy || !slices.Equal(row.Placements, w.placements) {
			t.Errorf("row %d: %v placed %v, want %v placed %v",
				i, row.Policy, row.Placements, w.policy, w.placements)
		}
		if math.Abs(row.MakespanSec-w.makespan) > 0.005 || math.Abs(row.TaskEnergyJ-w.taskJ) > 0.05 {
			t.Errorf("%v: makespan %.3f s, task %.2f J; want %.2f s, %.1f J",
				row.Policy, row.MakespanSec, row.TaskEnergyJ, w.makespan, w.taskJ)
		}
		if platform := row.TaskEnergyJ + idleW*row.MakespanSec; math.Abs(row.PlatformEnergyJ-platform) > 0.1 {
			t.Errorf("%v: platform %.2f J, want task + idle over makespan = %.2f J",
				row.Policy, row.PlatformEnergyJ, platform)
		}
	}
	if s := res.EnergySavingPercent(); math.Abs(s-15.4) > 0.05 {
		t.Errorf("energy-first saves %.2f%%, want 15.4%%", s)
	}
	if !strings.Contains(res.Table(), "saves 15.4%") {
		t.Fatal("table broken")
	}
}

func TestMirrorExperiment(t *testing.T) {
	rows, err := Mirror(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	ws, edge := rows[0], rows[1]
	if ws.FPS < 19 || ws.FPS > 23 || ws.PowerW < 350 || ws.PowerW > 450 {
		t.Fatalf("workstation out of envelope: %.1f FPS %.0f W", ws.FPS, ws.PowerW)
	}
	if edge.FPS < 9 || edge.PowerW > 50 {
		t.Fatalf("edge out of envelope: %.1f FPS %.0f W", edge.FPS, edge.PowerW)
	}
}

func TestUndervoltMLExperiment(t *testing.T) {
	rows, baseline, err := UndervoltML(5)
	if err != nil {
		t.Fatal(err)
	}
	if baseline < 0.9 {
		t.Fatalf("baseline accuracy %.2f too low", baseline)
	}
	if len(rows) < 10 {
		t.Fatalf("sweep too short: %d points", len(rows))
	}
	// Accuracy in the guardband equals baseline; deep rows save >50% power
	// while accuracy stays within 25 points (inherent resilience).
	last := rows[len(rows)-1]
	if last.SavingPercent < 50 {
		t.Fatalf("deepest saving only %.1f%%", last.SavingPercent)
	}
	if baseline-last.Accuracy > 0.25 {
		t.Fatalf("accuracy cliff: %.3f vs baseline %.3f", last.Accuracy, baseline)
	}
	if MLTable(rows, baseline) == "" {
		t.Fatal("table broken")
	}
}

func TestReplicationExperiment(t *testing.T) {
	rows, err := Replication(400, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	none, sel, all := rows[0], rows[1], rows[2]
	if !(all.TaintedOutputs <= sel.TaintedOutputs && sel.TaintedOutputs <= none.TaintedOutputs) {
		t.Fatalf("taint ordering: %+v", rows)
	}
	if !(none.EnergyJ < sel.EnergyJ && sel.EnergyJ < all.EnergyJ) {
		t.Fatalf("energy ordering: %+v", rows)
	}
	if ReplicationTable(rows) == "" {
		t.Fatal("table broken")
	}
}

func TestMTBFExperiment(t *testing.T) {
	fig6, err := Fig6([]int{1}, []float64{16})
	if err != nil {
		t.Fatal(err)
	}
	factor, err := MTBF(fig6, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Sec. IV: sustains systems with 7× smaller MTBF.
	if factor < 7 {
		t.Fatalf("MTBF factor %.1f below the paper's 7x", factor)
	}
}

func TestXiTAOExperiment(t *testing.T) {
	rows, err := XiTAOElasticity(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	elastic := rows[0]
	for _, r := range rows[1:] {
		if elastic.MakespanSec >= r.MakespanSec {
			t.Fatalf("elastic (%.2fs) not fastest: %+v", elastic.MakespanSec, rows)
		}
	}
	if XiTAOTable(rows) == "" {
		t.Fatal("table broken")
	}
}

func TestRECSBoxInventory(t *testing.T) {
	s, err := RECSBoxInventory()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"recs0", "gpu", "microservers: 15/144"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("inventory missing %q:\n%s", frag, s)
		}
	}
}
