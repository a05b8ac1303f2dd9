// Package kalman implements the linear Kalman filter used by the Smart
// Mirror tracking pipeline (paper Sec. VI: "Kalman and Hungarian filters
// are used to keep track" of detections). The filter is generic over state
// and measurement dimension; a constant-velocity 2-D tracker constructor
// matches the mirror's object-tracking use.
package kalman

import (
	"fmt"

	"legato/internal/mathx"
)

// Filter is a linear Kalman filter:
//
//	x' = F·x + w,  w ~ N(0, Q)
//	z  = H·x + v,  v ~ N(0, R)
type Filter struct {
	// F is the state-transition model (n×n).
	F *mathx.Matrix
	// H is the observation model (m×n).
	H *mathx.Matrix
	// Q is the process-noise covariance (n×n).
	Q *mathx.Matrix
	// R is the measurement-noise covariance (m×m).
	R *mathx.Matrix

	// X is the state estimate (n×1); P its covariance (n×n).
	X *mathx.Matrix
	P *mathx.Matrix
}

// New builds a filter from its matrices, validating dimensions.
func New(f, h, q, r, x0, p0 *mathx.Matrix) (*Filter, error) {
	n := f.Rows
	if f.Cols != n {
		return nil, fmt.Errorf("kalman: F must be square, got %dx%d", f.Rows, f.Cols)
	}
	if h.Cols != n {
		return nil, fmt.Errorf("kalman: H has %d columns, state dim is %d", h.Cols, n)
	}
	m := h.Rows
	if q.Rows != n || q.Cols != n {
		return nil, fmt.Errorf("kalman: Q must be %dx%d", n, n)
	}
	if r.Rows != m || r.Cols != m {
		return nil, fmt.Errorf("kalman: R must be %dx%d", m, m)
	}
	if x0.Rows != n || x0.Cols != 1 {
		return nil, fmt.Errorf("kalman: x0 must be %dx1", n)
	}
	if p0.Rows != n || p0.Cols != n {
		return nil, fmt.Errorf("kalman: P0 must be %dx%d", n, n)
	}
	return &Filter{F: f, H: h, Q: q, R: r, X: x0.Clone(), P: p0.Clone()}, nil
}

// Predict advances the state estimate one step.
func (k *Filter) Predict() {
	k.X = k.F.Mul(k.X)
	k.P = k.F.Mul(k.P).Mul(k.F.Transpose()).Add(k.Q)
}

// Update incorporates measurement z (m×1). It returns the innovation
// (residual) vector.
func (k *Filter) Update(z *mathx.Matrix) (*mathx.Matrix, error) {
	if z.Rows != k.H.Rows || z.Cols != 1 {
		return nil, fmt.Errorf("kalman: measurement must be %dx1, got %dx%d", k.H.Rows, z.Rows, z.Cols)
	}
	y := z.Sub(k.H.Mul(k.X))                        // innovation
	s := k.H.Mul(k.P).Mul(k.H.Transpose()).Add(k.R) // innovation covariance
	sInv, err := s.Inverse()
	if err != nil {
		return nil, fmt.Errorf("kalman: singular innovation covariance: %w", err)
	}
	gain := k.P.Mul(k.H.Transpose()).Mul(sInv) // Kalman gain
	k.X = k.X.Add(gain.Mul(y))
	n := k.P.Rows
	k.P = mathx.Identity(n).Sub(gain.Mul(k.H)).Mul(k.P)
	return y, nil
}

// ConstantVelocity2D builds a 4-state (x, y, vx, vy) constant-velocity
// tracker observing position only, with time step dt, process noise q and
// measurement noise r.
func ConstantVelocity2D(dt, q, r float64, x0, y0 float64) *Filter {
	f := mathx.NewMatrixFrom(4, 4, []float64{
		1, 0, dt, 0,
		0, 1, 0, dt,
		0, 0, 1, 0,
		0, 0, 0, 1,
	})
	h := mathx.NewMatrixFrom(2, 4, []float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
	})
	qm := mathx.Identity(4).Scale(q)
	rm := mathx.Identity(2).Scale(r)
	x := mathx.NewMatrixFrom(4, 1, []float64{x0, y0, 0, 0})
	p := mathx.Identity(4).Scale(10)
	filt, err := New(f, h, qm, rm, x, p)
	if err != nil {
		panic(err) // dimensions are correct by construction
	}
	return filt
}

// Position returns the current (x, y) estimate of a ConstantVelocity2D
// filter.
func (k *Filter) Position() (float64, float64) {
	return k.X.At(0, 0), k.X.At(1, 0)
}
