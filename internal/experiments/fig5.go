// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md §7 for the experiment
// index). Each driver returns structured rows plus a rendered table in the
// shape of the corresponding figure; cmd/legato-bench and the repository
// benchmarks call into this package so the numbers pinned in
// cmd/legato-bench/testdata/paper-quick.golden come from exactly one code
// path.
package experiments

import (
	"fmt"
	"strings"

	"legato/internal/fpga"
	"legato/internal/undervolt"
)

// Fig5Row is one board's summary from the undervolting sweep.
type Fig5Row struct {
	Board            string
	VMin             float64
	VCrash           float64
	FaultsAtCrash    float64 // faults/Mbit at the last responding step
	PaperFaults      float64 // published value
	MaxSavingPercent float64
	PaperSavingNote  string
}

// Fig5Result carries the per-board sweeps and the summary rows.
type Fig5Result struct {
	Sweeps []*undervolt.Sweep
	Rows   []Fig5Row
}

// Fig5 sweeps all four published boards (VC707, ZC702, KC705-A, KC705-B)
// from nominal voltage to crash, reproducing the regions, power curve and
// fault-rate curve of Fig. 5.
func Fig5(seed int64) (*Fig5Result, error) {
	sweeps, err := undervolt.RunAll(seed, 0.45, 0.005)
	if err != nil {
		return nil, err
	}
	published := map[string]float64{}
	for _, p := range fpga.AllProfiles() {
		published[p.Name] = p.FaultsPerMbitAtCrash
	}
	res := &Fig5Result{Sweeps: sweeps}
	for _, s := range sweeps {
		res.Rows = append(res.Rows, Fig5Row{
			Board:            s.Board,
			VMin:             s.VMinObserved,
			VCrash:           s.VCrashObserved,
			FaultsAtCrash:    s.FaultsAtCrash(),
			PaperFaults:      published[s.Board],
			MaxSavingPercent: s.MaxSaving(),
			PaperSavingNote:  ">90% (VC707)",
		})
	}
	return res, nil
}

// Table renders the Fig. 5 summary: measured vs published endpoints.
func (r *Fig5Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig. 5 — FPGA undervolting: voltage regions, power saving, fault rates\n")
	fmt.Fprintf(&sb, "%-9s %8s %8s %16s %14s %10s\n",
		"board", "Vmin", "Vcrash", "faults/Mbit", "paper", "saving %")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-9s %8.3f %8.3f %16.1f %14.0f %10.1f\n",
			row.Board, row.VMin, row.VCrash, row.FaultsAtCrash, row.PaperFaults, row.MaxSavingPercent)
	}
	return sb.String()
}
