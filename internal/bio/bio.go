// Package bio implements the Infection Research use case of paper
// Sec. II-F (partner HZI — Helmholtz Centre for Infection Research):
// pairwise local sequence alignment by the Smith-Waterman algorithm,
// parallelised over the LEGaTO task runtime as an anti-diagonal wavefront,
// which is the canonical task-graph decomposition for dynamic-programming
// kernels on heterogeneous hardware.
package bio

import (
	"fmt"
	"strings"

	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// Scoring holds the alignment parameters.
type Scoring struct {
	Match    int // score for a match (> 0)
	Mismatch int // penalty for a mismatch (< 0)
	Gap      int // penalty per gap (< 0)
}

// DefaultScoring is the classic +2/-1/-1 scheme.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, Gap: -1} }

// Alignment is the result of a local alignment.
type Alignment struct {
	Score int
	// EndI, EndJ are the 1-based end coordinates of the optimal local
	// alignment in the two sequences.
	EndI, EndJ int
	// AlignedA and AlignedB are the aligned substrings with '-' gaps.
	AlignedA, AlignedB string
}

// SmithWaterman computes the optimal local alignment serially (the
// reference implementation).
func SmithWaterman(a, b string, s Scoring) Alignment {
	n, m := len(a), len(b)
	h := make([][]int, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
	}
	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			diag := h[i-1][j-1]
			if a[i-1] == b[j-1] {
				diag += s.Match
			} else {
				diag += s.Mismatch
			}
			v := max4(0, diag, h[i-1][j]+s.Gap, h[i][j-1]+s.Gap)
			h[i][j] = v
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	alignedA, alignedB := traceback(a, b, h, s, bi, bj)
	return Alignment{Score: best, EndI: bi, EndJ: bj, AlignedA: alignedA, AlignedB: alignedB}
}

// traceback reconstructs the aligned substrings from the score matrix.
func traceback(a, b string, h [][]int, s Scoring, i, j int) (string, string) {
	var sa, sb strings.Builder
	for i > 0 && j > 0 && h[i][j] > 0 {
		diag := h[i-1][j-1]
		sub := s.Mismatch
		if a[i-1] == b[j-1] {
			sub = s.Match
		}
		switch {
		case h[i][j] == diag+sub:
			sa.WriteByte(a[i-1])
			sb.WriteByte(b[j-1])
			i--
			j--
		case h[i][j] == h[i-1][j]+s.Gap:
			sa.WriteByte(a[i-1])
			sb.WriteByte('-')
			i--
		default:
			sa.WriteByte('-')
			sb.WriteByte(b[j-1])
			j--
		}
	}
	return reverse(sa.String()), reverse(sb.String())
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

func max4(a, b, c, d int) int {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}

// WavefrontResult is the outcome of a task-parallel alignment.
type WavefrontResult struct {
	Alignment Alignment
	// Tiles is the number of DP tiles (tasks) executed.
	Tiles int
	// Makespan is the simulated execution time on the platform.
	Makespan sim.Time
	// EnergyJ is the dynamic task energy.
	EnergyJ float64
}

// SmithWatermanWavefront runs the same DP as tiled tasks over the LEGaTO
// runtime: tile (i,j) depends on (i−1,j), (i,j−1) and (i−1,j−1), the
// anti-diagonal wavefront. The numerical result is identical to the serial
// reference; the task graph exercises the runtime's dependence engine and
// produces platform timing/energy.
func SmithWatermanWavefront(eng *sim.Engine, devices []*hw.Device, policy taskrt.Policy,
	a, b string, s Scoring, tile int) (*WavefrontResult, error) {
	if tile <= 0 {
		return nil, fmt.Errorf("bio: tile size must be positive")
	}
	n, m := len(a), len(b)
	h := make([][]int, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
	}
	best, bi, bj := 0, 0, 0

	rt := taskrt.New(eng, devices, policy, power.NewLedger(0, devices, power.RaceToIdle))
	tilesI := (n + tile - 1) / tile
	tilesJ := (m + tile - 1) / tile
	// Tile dependence data: region (ti,tj) is written by its tile task.
	regions := make([][]*taskrt.Data, tilesI)
	for ti := range regions {
		regions[ti] = make([]*taskrt.Data, tilesJ)
		for tj := range regions[ti] {
			regions[ti][tj] = rt.Data(fmt.Sprintf("tile-%d-%d", ti, tj), int64(tile*tile*4))
		}
	}
	count := 0
	for ti := 0; ti < tilesI; ti++ {
		for tj := 0; tj < tilesJ; tj++ {
			ti, tj := ti, tj
			var deps []*taskrt.Data
			if ti > 0 {
				deps = append(deps, regions[ti-1][tj])
			}
			if tj > 0 {
				deps = append(deps, regions[ti][tj-1])
			}
			if ti > 0 && tj > 0 {
				deps = append(deps, regions[ti-1][tj-1])
			}
			iLo, iHi := ti*tile+1, minInt((ti+1)*tile, n)
			jLo, jHi := tj*tile+1, minInt((tj+1)*tile, m)
			cells := float64((iHi - iLo + 1) * (jHi - jLo + 1))
			err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("sw-%d-%d", ti, tj),
				Gops: cells * 10e-9, // ~10 ops per DP cell
				In:   deps,
				Out:  []*taskrt.Data{regions[ti][tj]},
				Fn: func() {
					for i := iLo; i <= iHi; i++ {
						for j := jLo; j <= jHi; j++ {
							diag := h[i-1][j-1]
							if a[i-1] == b[j-1] {
								diag += s.Match
							} else {
								diag += s.Mismatch
							}
							v := max4(0, diag, h[i-1][j]+s.Gap, h[i][j-1]+s.Gap)
							h[i][j] = v
							if v > best {
								best, bi, bj = v, i, j
							}
						}
					}
				},
			})
			if err != nil {
				return nil, err
			}
			count++
		}
	}
	res, err := rt.Run()
	if err != nil {
		return nil, err
	}
	alignedA, alignedB := traceback(a, b, h, s, bi, bj)
	return &WavefrontResult{
		Alignment: Alignment{Score: best, EndI: bi, EndJ: bj, AlignedA: alignedA, AlignedB: alignedB},
		Tiles:     count,
		Makespan:  res.Makespan,
		EnergyJ:   res.EnergyJ,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RandomDNA generates a deterministic pseudo-random DNA sequence.
func RandomDNA(n int, seed int64) string {
	const alphabet = "ACGT"
	out := make([]byte, n)
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := range out {
		state = state*2862933555777941757 + 3037000493
		out[i] = alphabet[state>>62]
	}
	return string(out)
}
