package legato

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md §7 for the experiment index). Each
// benchmark regenerates its artifact through internal/experiments — the
// same code path as cmd/legato-bench — and reports the headline numbers as
// custom metrics so `go test -bench` output documents the reproduction.

import (
	"context"
	"testing"
	"time"

	"legato/internal/experiments"
	"legato/internal/hw"
	"legato/internal/secure"
)

// BenchmarkFig5UndervoltSweep regenerates Fig. 5: voltage sweeps over all
// four FPGA boards with memory tests at every step.
func BenchmarkFig5UndervoltSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Board == "VC707" {
				b.ReportMetric(row.FaultsAtCrash, "VC707-faults/Mbit")
				b.ReportMetric(row.MaxSavingPercent, "VC707-saving-%")
			}
		}
	}
}

// BenchmarkFig6CheckpointRestart regenerates Fig. 6: Heat2D C/R over the
// full node sweep at 16 GB/process, initial vs async.
func BenchmarkFig6CheckpointRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6([]int{1, 4, 8, 16}, []float64{16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupCkpt(16), "ckpt-speedup-x")
		b.ReportMetric(res.SpeedupRec(16), "recover-speedup-x")
	}
}

// BenchmarkFig6LargeProblem regenerates the 32 GB/process panel.
func BenchmarkFig6LargeProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6([]int{1, 16}, []float64{32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[32][0].CkptAsync, "ckpt-async-sec")
	}
}

// BenchmarkFig7HEATSTradeoff regenerates the HEATS policy sweep (Fig. 7
// behaviour, [10]).
func BenchmarkFig7HEATSTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.HEATS(6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EnergySavingPercent(), "energy-saving-%")
	}
}

// BenchmarkSmartMirror regenerates the Sec. VI FPS/power comparison.
func BenchmarkSmartMirror(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Mirror(400, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FPS, "workstation-fps")
		b.ReportMetric(rows[0].PowerW, "workstation-W")
		b.ReportMetric(rows[1].FPS, "edge-fps")
		b.ReportMetric(rows[1].PowerW, "edge-W")
	}
}

// BenchmarkUndervoltML regenerates the Sec. III-C ML-resilience sweep.
func BenchmarkUndervoltML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, baseline, err := experiments.UndervoltML(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(baseline-last.Accuracy, "accuracy-drop-at-crash")
		b.ReportMetric(last.SavingPercent, "saving-%")
	}
}

// BenchmarkSelectiveReplication regenerates the Sec. I selective
// replication study (E9).
func BenchmarkSelectiveReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Replication(600, 5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		none, sel := rows[0], rows[1]
		if none.EnergyJ > 0 {
			b.ReportMetric(sel.EnergyJ/none.EnergyJ, "selective-energy-factor")
		}
		if sel.TaintedOutputs > 0 {
			b.ReportMetric(float64(none.TaintedOutputs)/float64(sel.TaintedOutputs), "reliability-gain-x")
		}
	}
}

// BenchmarkMTBFModel regenerates the Sec. IV MTBF-sustainability estimate.
func BenchmarkMTBFModel(b *testing.B) {
	fig6, err := experiments.Fig6([]int{1}, []float64{16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factor, err := experiments.MTBF(fig6, 16, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(factor, "mtbf-factor-x")
	}
}

// BenchmarkXiTAOElastic regenerates the Sec. II-C elasticity ablation (E10).
func BenchmarkXiTAOElastic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.XiTAOElasticity(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MakespanSec, "elastic-makespan-sec")
		b.ReportMetric(rows[1].MakespanSec, "fixedwide-makespan-sec")
	}
}

// BenchmarkTaskRuntime measures the OmpSs-style runtime scheduling a
// dependence-heavy graph on the cloud platform (E10 substrate throughput).
func BenchmarkTaskRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(WithPolicy(MinEnergy), WithTEE(secure.SGX))
		if err != nil {
			b.Fatal(err)
		}
		job, err := sys.NewJob("main")
		if err != nil {
			b.Fatal(err)
		}
		// Chain of stages with fan-out 8 each.
		prev := "stage0"
		job.Data(prev, 1024)
		for stage := 1; stage <= 10; stage++ {
			cur := "stage" + string(rune('0'+stage%10)) + "x"
			for j := 0; j < 8; j++ {
				if err := job.Submit(Task{
					Name: "work", Gops: 10,
					In: []string{prev}, Out: []string{cur + string(rune('a'+j))},
				}); err != nil {
					b.Fatal(err)
				}
			}
			prev = cur + "a"
		}
		if _, err := job.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		_ = sys.Close(context.Background())
	}
}

// BenchmarkMultiJobThroughput measures the concurrent job engine (E11):
// 8 independent task graphs through an 8-worker session versus strictly
// serial submission, compared in fleet time. The acceptance bar for the
// engine is speedup-x >= 2; with a contention-free cloud fleet the greedy
// lane schedule reaches ~8x.
func BenchmarkMultiJobThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		serial := runThroughputSession(b, 1)
		conc := runThroughputSession(b, 8)
		speedup := float64(serial.SessionMakespan) / float64(conc.SessionMakespan)
		b.ReportMetric(speedup, "speedup-x")
		b.ReportMetric(float64(conc.AdmissionStalls), "admission-stalls")
		if speedup < 2 {
			b.Fatalf("concurrent engine speedup %.2fx, want >= 2x", speedup)
		}
	}
}

// BenchmarkObserverOverhead is the cost gate of the observability layer:
// the E11 multi-job workload with the (default) event bus armed but no
// listener attached must stay within 3% of the bus-free baseline's
// fleet-time throughput. The fleet-time speedup is deterministic (the
// virtual-time schedule cannot see observers), so the gate proves the
// idle bus never perturbs scheduling; the wall-clock ratio is reported
// as an informational metric of the host-side nil-check/atomic-load
// cost.
func BenchmarkObserverOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wall := time.Now()
		serialBase := runThroughputSession(b, 1, withoutObservability())
		concBase := runThroughputSession(b, 8, withoutObservability())
		baseWall := time.Since(wall)

		wall = time.Now()
		serialObs := runThroughputSession(b, 1)
		concObs := runThroughputSession(b, 8)
		obsWall := time.Since(wall)

		baseSpeedup := float64(serialBase.SessionMakespan) / float64(concBase.SessionMakespan)
		obsSpeedup := float64(serialObs.SessionMakespan) / float64(concObs.SessionMakespan)
		b.ReportMetric(baseSpeedup, "baseline-speedup-x")
		b.ReportMetric(obsSpeedup, "armed-idle-speedup-x")
		if baseWall > 0 {
			b.ReportMetric(float64(obsWall)/float64(baseWall), "wall-ratio")
		}
		if obsSpeedup < 0.97*baseSpeedup {
			b.Fatalf("armed-idle observer throughput %.3fx below 97%% of the bus-free baseline %.3fx",
				obsSpeedup, baseSpeedup)
		}
	}
}

// BenchmarkResilientThroughput regenerates E12: the 8-job session under an
// MTBF-driven single-device loss with async L1 checkpoints, versus the
// fault-free baseline. Acceptance gates: every job completes, makespan
// inflation ≤ 1.5×, zero admission oversubscription, and nonzero
// retry/restore counters.
func BenchmarkResilientThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Resilient(8, 8, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InflationX, "inflation-x")
		b.ReportMetric(float64(res.Retries+res.Restores), "recoveries")
		b.ReportMetric(float64(res.Checkpoints), "checkpoints")
		if res.JobsCompleted != res.Jobs {
			b.Fatalf("only %d/%d jobs completed under device loss", res.JobsCompleted, res.Jobs)
		}
		if res.InflationX > 1.5 {
			b.Fatalf("makespan inflation %.2fx under single-device loss, want <= 1.5x", res.InflationX)
		}
		if res.PeakViolations != 0 {
			b.Fatalf("%d devices oversubscribed after the loss", res.PeakViolations)
		}
		if res.Crashes < 1 || res.Retries+res.Restores == 0 {
			b.Fatalf("no recovery exercised: crashes=%d retries=%d restores=%d",
				res.Crashes, res.Retries, res.Restores)
		}
	}
}

// BenchmarkPowerCap regenerates E13: the 8-job mixed-width session under a
// fleet power cap at 60% of nominal peak draw with the pack-and-throttle
// governor, versus uncapped, plus the placement-policy EDP comparison.
// Acceptance gates: the capped session's peak draw never exceeds the cap
// (peak-draw witness), the cap actually bound (power stalls observed),
// makespan inflation ≤ 1.5×, every job completes, and MinEDP beats MinTime
// on measured energy-delay product.
func BenchmarkPowerCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PowerCap(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CappedPeakW, "peak-draw-W")
		b.ReportMetric(res.InflationX, "inflation-x")
		b.ReportMetric(float64(res.PowerStalls), "power-stalls")
		b.ReportMetric(res.MinEDPEDP/res.MinTimeEDP, "edp-ratio")
		if res.CapViolated {
			b.Fatalf("peak draw %.1f W exceeded the %.1f W cap", res.CappedPeakW, res.CapW)
		}
		if res.PowerStalls == 0 {
			b.Fatalf("power cap never bound (0 stalls): the witness is vacuous")
		}
		if res.JobsCompleted != res.Jobs {
			b.Fatalf("only %d/%d jobs completed under the power cap", res.JobsCompleted, res.Jobs)
		}
		if res.InflationX > 1.5 {
			b.Fatalf("makespan inflation %.2fx under the power cap, want <= 1.5x", res.InflationX)
		}
		if res.MinEDPEDP > res.MinTimeEDP {
			b.Fatalf("MinEDP measured EDP %.1f J·s worse than MinTime %.1f J·s",
				res.MinEDPEDP, res.MinTimeEDP)
		}
	}
}

// BenchmarkSecureOverhead measures the enclave cost profile (software vs
// SGX) over a sealing-heavy workload (the 10× goal of Sec. VII).
func BenchmarkSecureOverhead(b *testing.B) {
	root := []byte("bench-platform-root-key-00000000")
	for i := 0; i < b.N; i++ {
		workload := func(kind secure.TEEKind) *secure.Enclave {
			e, err := secure.New(kind, []byte("bench"), root)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1<<20)
			for j := 0; j < 8; j++ {
				sealed, err := e.Seal(buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Unseal(sealed); err != nil {
					b.Fatal(err)
				}
			}
			return e
		}
		sw := workload(secure.SoftwareOnly)
		hwE := workload(secure.SGX)
		b.ReportMetric(secure.OverheadRatio(sw, hwE), "hw-accel-x")
	}
}

// BenchmarkECCMitigation measures the SECDED ablation sweep (DESIGN.md §8).
func BenchmarkECCMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ECCMitigation(64<<10, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		raw, eccBad := 0, 0
		for _, r := range rows {
			raw += r.PlainBadWords
			eccBad += r.ECCBadWords
		}
		b.ReportMetric(float64(raw), "raw-bad-words")
		b.ReportMetric(float64(eccBad), "ecc-bad-words")
	}
}

// BenchmarkTailLatency regenerates E14: the multi-job session under a
// degrade-heavy fault plan (one device silently 6× slower, invisible to
// placement) and a fleet power cap, hedged vs unhedged. Acceptance gates:
// hedging cuts both p99 task latency and session makespan, the hedged
// session's peak draw never exceeds the cap (hedges are admitted through
// the watt ledger), platform energy stays within 1.25× of the unhedged
// run, and the straggler/hedge counters prove the path was exercised.
func BenchmarkTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tail(6, 4, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.P99CutX, "p99-cut-x")
		b.ReportMetric(res.MakespanCutX, "makespan-cut-x")
		b.ReportMetric(res.EnergyRatioX, "energy-ratio-x")
		b.ReportMetric(res.HedgeWastedJ, "hedge-waste-J")
		if res.HedgedP99 >= res.BaseP99 {
			b.Fatalf("hedged p99 %v not below unhedged %v", res.HedgedP99, res.BaseP99)
		}
		if res.HedgedMakespan >= res.BaseMakespan {
			b.Fatalf("hedged makespan %v not below unhedged %v", res.HedgedMakespan, res.BaseMakespan)
		}
		if res.CapViolated {
			b.Fatalf("hedged peak draw %.1f W exceeded the %.1f W cap", res.HedgedPeakW, res.CapW)
		}
		if res.EnergyRatioX > 1.25 {
			b.Fatalf("hedged platform energy %.2fx the unhedged session, want <= 1.25x", res.EnergyRatioX)
		}
		if res.Stragglers == 0 || res.HedgesWon == 0 {
			b.Fatalf("tail path not exercised: stragglers=%d hedges-won=%d", res.Stragglers, res.HedgesWon)
		}
		if res.JobsCompleted != res.Jobs {
			b.Fatalf("only %d/%d jobs completed under hedging", res.JobsCompleted, res.Jobs)
		}
	}
}

// BenchmarkRECSBoxConstruction measures platform bring-up (E7).
func BenchmarkRECSBoxConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(WithPlatform(CloudPlatform), WithPolicy(MinTime), WithTEE(secure.SGX))
		if err != nil {
			b.Fatal(err)
		}
		if got := len(sys.Devices()); got != 15 {
			b.Fatalf("devices: %d", got)
		}
		_ = sys.Close(context.Background())
	}
	_ = hw.MaxMicroservers
}
