// Smart Mirror (paper Sec. VI): evaluate the detection+tracking pipeline
// on the workstation baseline and both Fig. 9 edge-server compositions,
// then show the live tracker following scene objects.
package main

import (
	"fmt"
	"log"

	"legato/internal/hw"
	"legato/internal/mirror"
)

func main() {
	log.SetFlags(0)
	// Three deployments: the 400 W workstation and the two edge
	// compositions named in Sec. VI ("1x CPU + 2x GPU or 1 CPU + 1 GPU +
	// 1 FPGA SoC").
	ws := mirror.WorkstationConfig()
	edgeGF, err := mirror.EdgeConfig()
	if err != nil {
		log.Fatal(err)
	}
	edge2G, err := hw.MirrorEdgeCPUGPUGPU("edge-2g")
	if err != nil {
		log.Fatal(err)
	}
	var accels []*hw.Device
	for _, m := range edge2G.Modules {
		if m.Device.Spec.Class == hw.GPU {
			accels = append(accels, m.Device)
		}
	}
	edge2GCfg := &mirror.HardwareConfig{
		Name:            "edge-cpu+2xgpu",
		Accels:          accels,
		Host:            edge2G.ByClass(hw.CPUARM).Device,
		HostUtilization: 0.3,
		Modules:         mirror.OptimizedModules(),
		CameraFPS:       30,
	}

	var results []*mirror.Result
	for _, cfg := range []*mirror.HardwareConfig{ws, edgeGF, edge2GCfg} {
		r, err := mirror.Evaluate(cfg, 600, 42)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
	}
	fmt.Print(mirror.CompareTable(results))

	// Live tracking demo: follow the scene for 3 simulated seconds at the
	// edge server's frame rate.
	fmt.Println("\nlive tracking on the edge server (Kalman + Hungarian):")
	fps := results[1].FPS
	scene := mirror.NewScene(3, 7)
	det := mirror.NewDetector(0.5, 0.05, 0.1, 8)
	tracker := mirror.NewTracker(1 / fps)
	for frame := 0; frame < int(3*fps); frame++ {
		scene.Step(1 / fps)
		tracker.Step(det.Detect(scene))
		tracker.Observe(scene)
	}
	for _, trk := range tracker.ConfirmedTracks() {
		x, y := trk.Position()
		fmt.Printf("  track %d (%s): position (%.1f, %.1f)\n", trk.ID, trk.Kind, x, y)
	}
	fmt.Printf("MOTA after 3 s: %.2f\n", tracker.MOTA())
}
