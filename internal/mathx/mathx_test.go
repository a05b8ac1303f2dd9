package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixMulIdentity(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	id := Identity(2)
	got := id.Mul(m)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("I*M != M at %d: got %v want %v", i, got.Data[i], m.Data[i])
		}
	}
}

func TestMatrixMulKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	got := a.Mul(b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("at %d: got %v want %v", i, got.Data[i], w)
		}
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{4, 3, 2, 1})
	sum := a.Add(b)
	for _, v := range sum.Data {
		if v != 5 {
			t.Fatalf("add: got %v want 5", v)
		}
	}
	diff := sum.Sub(b)
	for i := range a.Data {
		if diff.Data[i] != a.Data[i] {
			t.Fatalf("sub did not invert add")
		}
	}
	twice := a.Scale(2)
	for i := range a.Data {
		if twice.Data[i] != 2*a.Data[i] {
			t.Fatalf("scale: got %v want %v", twice.Data[i], 2*a.Data[i])
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape: %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{4, 7, 2, 3, 6, 1, 2, 5, 3})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatalf("inverse: %v", err)
	}
	prod := a.Mul(inv)
	id := Identity(3)
	for i := range id.Data {
		if !almostEq(prod.Data[i], id.Data[i], 1e-9) {
			t.Fatalf("A*A^-1 != I at %d: %v", i, prod.Data[i])
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := a.Inverse(); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestMatrixSolve(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 3})
	b := NewMatrixFrom(2, 1, []float64{5, 10})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	x := inv.Mul(b)
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	if !almostEq(x.At(0, 0), 1, 1e-9) || !almostEq(x.At(1, 0), 3, 1e-9) {
		t.Fatalf("solve got (%v, %v), want (1, 3)", x.At(0, 0), x.At(1, 0))
	}
}

// Property: inverting a random well-conditioned matrix and multiplying back
// yields the identity.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 2 + rng.Intn(4)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Float64()*4 - 2
		}
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n)*3)
		}
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				if !almostEq(prod.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
