// Infection Research (paper Sec. II-F, partner HZI): align pathogen DNA
// reads against a reference with Smith-Waterman, decomposed into an
// anti-diagonal wavefront of LEGaTO tasks, comparing placement policies —
// the same alignment, cheaper energy under MinEnergy.
package main

import (
	"fmt"
	"log"

	"legato/internal/bio"
	"legato/internal/hw"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

func main() {
	log.SetFlags(0)

	reference := bio.RandomDNA(512, 101)
	// A "read" that truly matches a slice of the reference, with two SNPs.
	read := []byte(reference[200:328])
	read[40] = 'A'
	read[90] = 'C'

	scoring := bio.DefaultScoring()
	serial := bio.SmithWaterman(reference, string(read), scoring)
	fmt.Printf("serial reference: score %d, alignment ends at ref position %d\n",
		serial.Score, serial.EndI)

	for _, policy := range []taskrt.Policy{taskrt.MinTime, taskrt.MinEnergy} {
		eng := sim.NewEngine()
		devices := []*hw.Device{
			{ID: "xeon0", Spec: hw.XeonD()},
			{ID: "arm0", Spec: hw.ARMv8Server()},
			{ID: "jetson0", Spec: hw.JetsonTX2()},
		}
		res, err := bio.SmithWatermanWavefront(eng, devices, policy, reference, string(read), scoring, 64)
		if err != nil {
			log.Fatal(err)
		}
		if res.Alignment.Score != serial.Score {
			log.Fatalf("wavefront diverged from serial: %d vs %d", res.Alignment.Score, serial.Score)
		}
		fmt.Printf("%-10s: %3d tiles, makespan %8.4f s, task energy %7.4f J (score %d ✓)\n",
			policy, res.Tiles, sim.ToSeconds(res.Makespan), res.EnergyJ, res.Alignment.Score)
	}
	fmt.Println("\nboth policies produce the identical alignment; the energy policy")
	fmt.Println("shifts wavefront tiles to the low-power devices at some makespan cost.")
}
