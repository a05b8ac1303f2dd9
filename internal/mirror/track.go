package mirror

import (
	"math"

	"legato/internal/hungarian"
	"legato/internal/kalman"
	"legato/internal/mathx"
)

// Track is one live tracked object.
type Track struct {
	ID     int
	Kind   string
	filter *kalman.Filter
	// Missed counts consecutive frames without an associated detection.
	Missed int
	// Hits counts total associated detections.
	Hits int
	// lastTruth remembers the ground-truth id of the last associated
	// detection (scoring only).
	lastTruth int
}

// Position returns the track's current estimate.
func (t *Track) Position() (float64, float64) { return t.filter.Position() }

// Tracker maintains tracks over detection frames with a Kalman filter per
// track and Hungarian association (paper Sec. VI).
type Tracker struct {
	// GateDistance is the maximum association distance.
	GateDistance float64
	// MaxMissed retires a track after this many consecutive misses.
	MaxMissed int
	// MinHits promotes a track to confirmed.
	MinHits int
	// DT is the frame interval in seconds.
	DT float64

	tracks []*Track
	nextID int

	// Scoring counters (against ground truth).
	Matches    int
	Misses     int
	FalseP     int
	IDSwitches int
	GTCount    int
}

// NewTracker builds a tracker with the mirror pipeline's defaults.
func NewTracker(dt float64) *Tracker {
	return &Tracker{GateDistance: 8, MaxMissed: 10, MinHits: 3, DT: dt}
}

// ConfirmedTracks returns tracks with at least MinHits associations.
func (tr *Tracker) ConfirmedTracks() []*Track {
	var out []*Track
	for _, t := range tr.tracks {
		if t.Hits >= tr.MinHits {
			out = append(out, t)
		}
	}
	return out
}

// Step consumes one detection frame: predict, associate, update, manage.
func (tr *Tracker) Step(dets []Detection) {
	for _, t := range tr.tracks {
		t.filter.Predict()
	}

	nT, nD := len(tr.tracks), len(dets)
	assignedDet := make([]int, nT)
	for i := range assignedDet {
		assignedDet[i] = -1
	}
	detUsed := make([]bool, nD)

	if nT > 0 && nD > 0 {
		// Cost matrix: Euclidean distance; pad with virtual columns when
		// tracks outnumber detections so the solver stays rectangular.
		cols := nD
		if cols < nT {
			cols = nT
		}
		const pad = 1e6
		cost := make([][]float64, nT)
		for i, t := range tr.tracks {
			cost[i] = make([]float64, cols)
			x, y := t.filter.Position()
			for j := 0; j < cols; j++ {
				if j < nD {
					cost[i][j] = math.Hypot(x-dets[j].X, y-dets[j].Y)
				} else {
					cost[i][j] = pad
				}
			}
		}
		assign, err := hungarian.SolveWithThreshold(cost, tr.GateDistance)
		if err == nil {
			for i, j := range assign {
				if j >= 0 && j < nD {
					assignedDet[i] = j
					detUsed[j] = true
				}
			}
		}
	}

	// Update matched tracks.
	for i, t := range tr.tracks {
		j := assignedDet[i]
		if j == -1 {
			t.Missed++
			continue
		}
		d := dets[j]
		z := measurement(d.X, d.Y)
		if _, err := t.filter.Update(z); err == nil {
			t.Missed = 0
			t.Hits++
			if t.Hits >= tr.MinHits {
				tr.Matches++
				if d.TruthID != 0 {
					if t.lastTruth != 0 && t.lastTruth != d.TruthID {
						tr.IDSwitches++
					}
					t.lastTruth = d.TruthID
				} else {
					tr.FalseP++
				}
			}
		}
	}

	// Spawn tracks for unmatched detections.
	for j, d := range dets {
		if detUsed[j] {
			continue
		}
		tr.nextID++
		tr.tracks = append(tr.tracks, &Track{
			ID:        tr.nextID,
			Kind:      d.Kind,
			filter:    kalman.ConstantVelocity2D(tr.DT, 0.01, 1.0, d.X, d.Y),
			Hits:      1,
			lastTruth: d.TruthID,
		})
	}

	// Retire stale tracks.
	live := tr.tracks[:0]
	for _, t := range tr.tracks {
		if t.Missed <= tr.MaxMissed {
			live = append(live, t)
		}
	}
	tr.tracks = live
}

// Observe scores a frame against ground truth: call after Step with the
// same frame's scene objects.
func (tr *Tracker) Observe(s *Scene) {
	tr.GTCount += len(s.Objects)
	// Misses: ground-truth objects with no confirmed track nearby.
	for _, o := range s.Objects {
		found := false
		for _, t := range tr.ConfirmedTracks() {
			x, y := t.Position()
			if math.Hypot(x-o.X, y-o.Y) <= tr.GateDistance {
				found = true
				break
			}
		}
		if !found {
			tr.Misses++
		}
	}
}

// MOTA returns the multi-object tracking accuracy:
// 1 − (misses + false positives + id switches) / ground-truth count.
func (tr *Tracker) MOTA() float64 {
	if tr.GTCount == 0 {
		return 0
	}
	return 1 - float64(tr.Misses+tr.FalseP+tr.IDSwitches)/float64(tr.GTCount)
}

// measurement builds a 2×1 position measurement.
func measurement(x, y float64) *mathx.Matrix {
	return mathx.NewMatrixFrom(2, 1, []float64{x, y})
}
