package mirror

import (
	"fmt"
	"strings"

	"legato/internal/hw"
)

// Module is one recognition stage of the mirror pipeline (Fig. 8: face,
// object, gesture and speech recognition run as modules under the
// MagicMirror overlay).
type Module struct {
	Name string
	// Gops is the per-frame compute cost of the module.
	Gops float64
}

// StandardModules is the unoptimised YOLOv3-class pipeline the workstation
// baseline runs (object detection dominates; ~845 gops/frame total, which
// on two GTX1080-class GPUs yields the paper's ~21 FPS).
func StandardModules() []Module {
	return []Module{
		{Name: "object-detect", Gops: 700}, // YOLOv3-class full network
		{Name: "face-detect", Gops: 95},
		{Name: "gesture-detect", Gops: 40},
		{Name: "speech", Gops: 10},
	}
}

// OptimizedModules is the edge pipeline after the paper's "optimizations
// on the implementation and algorithmic level" (pruned/quantised models,
// FPGA offload): ~145 gops/frame, sized for 10 FPS on the edge server.
func OptimizedModules() []Module {
	return []Module{
		{Name: "object-detect", Gops: 110}, // tiny/pruned detector
		{Name: "face-detect", Gops: 22},
		{Name: "gesture-detect", Gops: 9},
		{Name: "speech", Gops: 4},
	}
}

// HardwareConfig is one mirror deployment.
type HardwareConfig struct {
	Name string
	// Accels is the pool of devices the recognition modules spread over
	// (frames are data-parallel across the pool).
	Accels []*hw.Device
	// Host runs capture, overlay and control; it contributes a fixed
	// HostUtilization of busy cores.
	Host            *hw.Device
	HostUtilization float64
	// Modules is the pipeline variant this deployment runs.
	Modules []Module
	// CameraFPS caps the achievable rate (default 30).
	CameraFPS float64
}

// TotalGops returns the per-frame cost of the configured pipeline.
func (c *HardwareConfig) TotalGops() float64 {
	s := 0.0
	for _, m := range c.Modules {
		s += m.Gops
	}
	return s
}

// Result is one configuration's evaluation (the numbers of Sec. VI).
type Result struct {
	Config string
	FPS    float64
	PowerW float64
	MOTA   float64
	Tracks int
	// GopsPerFrame echoes the pipeline cost.
	GopsPerFrame float64
	// EnergyPerFrameJ is PowerW / FPS.
	EnergyPerFrameJ float64
}

// WorkstationConfig builds the Sec. VI baseline: two GTX1080s plus an x86
// host running the unoptimised pipeline (~400 W, ~21 FPS).
func WorkstationConfig() *HardwareConfig {
	ws := hw.NewMirrorWorkstation("workstation")
	return &HardwareConfig{
		Name:            "workstation-2xGTX1080",
		Accels:          ws.GPUs,
		Host:            ws.Host,
		HostUtilization: 0.30,
		Modules:         StandardModules(),
		CameraFPS:       30,
	}
}

// EdgeConfig builds the optimised Fig. 9 edge server (1 CPU + 1 GPU +
// 1 FPGA SoC) running the optimised pipeline (~50 W, ~10 FPS target).
func EdgeConfig() (*HardwareConfig, error) {
	srv, err := hw.MirrorEdgeCPUGPUFPGA("edge")
	if err != nil {
		return nil, err
	}
	var accels []*hw.Device
	for _, m := range srv.Modules {
		if m.Device.Spec.Class == hw.GPU || m.Device.Spec.Class == hw.FPGA {
			accels = append(accels, m.Device)
		}
	}
	return &HardwareConfig{
		Name:            "edge-cpu+gpu+fpga",
		Accels:          accels,
		Host:            srv.ByClass(hw.CPUARM).Device,
		HostUtilization: 0.30,
		Modules:         OptimizedModules(),
		CameraFPS:       30,
	}, nil
}

// Evaluate runs the pipeline for `frames` frames: throughput and power
// come from the device models (modules are data-parallel over the
// accelerator pool); tracking quality comes from running the real
// Kalman+Hungarian tracker on the detector output at the achieved rate.
func Evaluate(cfg *HardwareConfig, frames int, seed int64) (*Result, error) {
	if len(cfg.Accels) == 0 {
		return nil, fmt.Errorf("mirror: config %q has no accelerators", cfg.Name)
	}
	if cfg.CameraFPS == 0 {
		cfg.CameraFPS = 30
	}
	gops := cfg.TotalGops()
	poolRate := 0.0
	for _, d := range cfg.Accels {
		poolRate += d.Spec.GOPS
	}
	fps := poolRate / gops
	if fps > cfg.CameraFPS {
		fps = cfg.CameraFPS
	}

	// Work spreads over the pool proportionally to throughput, so every
	// accelerator runs at the pool utilisation.
	poolUtil := gops * fps / poolRate
	power := 0.0
	for _, d := range cfg.Accels {
		power += d.Spec.IdleWatts + (d.Spec.PeakWatts-d.Spec.IdleWatts)*poolUtil
	}
	if cfg.Host != nil {
		power += cfg.Host.Spec.IdleWatts +
			(cfg.Host.Spec.PeakWatts-cfg.Host.Spec.IdleWatts)*cfg.HostUtilization
	}

	// Tracking at the achieved frame rate.
	dt := 1.0 / fps
	scene := NewScene(6, seed)
	det := NewDetector(0.8, 0.08, 0.2, seed+1)
	tracker := NewTracker(dt)
	for i := 0; i < frames; i++ {
		scene.Step(dt)
		tracker.Step(det.Detect(scene))
		tracker.Observe(scene)
	}

	return &Result{
		Config:          cfg.Name,
		FPS:             fps,
		PowerW:          power,
		MOTA:            tracker.MOTA(),
		Tracks:          len(tracker.ConfirmedTracks()),
		GopsPerFrame:    gops,
		EnergyPerFrameJ: power / fps,
	}, nil
}

// CompareTable renders the Sec. VI comparison.
func CompareTable(results []*Result) string {
	var sb strings.Builder
	sb.WriteString("Sec. VI — Smart Mirror pipeline: FPS and power per deployment\n")
	fmt.Fprintf(&sb, "%-24s %8s %9s %8s %10s %12s\n",
		"config", "FPS", "power W", "MOTA", "gops/frm", "J/frame")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-24s %8.1f %9.1f %8.2f %10.0f %12.1f\n",
			r.Config, r.FPS, r.PowerW, r.MOTA, r.GopsPerFrame, r.EnergyPerFrameJ)
	}
	sb.WriteString("paper: workstation 21 FPS @ 400 W; optimised edge target 10 FPS @ 50 W\n")
	return sb.String()
}
