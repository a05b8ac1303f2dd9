// Package mathx provides the small dense linear-algebra and statistics
// kernels used across the LEGaTO reproduction: matrices for the Kalman
// filter, least-squares fitting, and summary statistics for experiment
// reporting.
//
// The package is deliberately minimal: row-major dense matrices with the
// handful of operations the rest of the toolset needs, implemented with
// the standard library only.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row-major slice; the slice is copied.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mathx: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.Rows, m.Cols, m.Data)
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// ErrSingular reports a (numerically) singular matrix in a solve or inverse.
var ErrSingular = errors.New("mathx: singular matrix")

// Inverse returns m⁻¹ via Gauss-Jordan elimination with partial pivoting.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mathx: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// Solve solves m x = b for x where b is a column vector (or multi-column RHS).
func (m *Matrix) Solve(b *Matrix) (*Matrix, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.Mul(b), nil
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func (m *Matrix) mustSameShape(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
