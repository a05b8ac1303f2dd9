package kalman

import (
	"math"
	"math/rand"
	"testing"

	"legato/internal/mathx"
)

func TestNewValidatesDimensions(t *testing.T) {
	f := mathx.Identity(4)
	h := mathx.NewMatrix(2, 4)
	q := mathx.Identity(4)
	r := mathx.Identity(2)
	x := mathx.NewMatrix(4, 1)
	p := mathx.Identity(4)
	if _, err := New(f, h, q, r, x, p); err != nil {
		t.Fatalf("valid dims rejected: %v", err)
	}
	if _, err := New(f, mathx.NewMatrix(2, 3), q, r, x, p); err == nil {
		t.Fatal("bad H accepted")
	}
	if _, err := New(f, h, mathx.Identity(3), r, x, p); err == nil {
		t.Fatal("bad Q accepted")
	}
	if _, err := New(f, h, q, mathx.Identity(3), x, p); err == nil {
		t.Fatal("bad R accepted")
	}
	if _, err := New(f, h, q, r, mathx.NewMatrix(3, 1), p); err == nil {
		t.Fatal("bad x0 accepted")
	}
}

func TestStaticTargetConverges(t *testing.T) {
	// A stationary target at (3, -2) with noisy measurements: the estimate
	// must converge to the truth and covariance must shrink.
	k := ConstantVelocity2D(1, 1e-6, 0.5, 0, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		k.Predict()
		z := mathx.NewMatrixFrom(2, 1, []float64{
			3 + rng.NormFloat64()*0.5,
			-2 + rng.NormFloat64()*0.5,
		})
		if _, err := k.Update(z); err != nil {
			t.Fatal(err)
		}
	}
	x, y := k.Position()
	if math.Abs(x-3) > 0.2 || math.Abs(y+2) > 0.2 {
		t.Fatalf("estimate (%.3f, %.3f) far from (3, -2)", x, y)
	}
	if k.P.At(0, 0) > 1 {
		t.Fatalf("covariance did not shrink: %v", k.P.At(0, 0))
	}
}

func TestConstantVelocityTracking(t *testing.T) {
	// Target moving at (1, 0.5)/step; filter should learn the velocity.
	k := ConstantVelocity2D(1, 1e-4, 0.1, 0, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 1; i <= 300; i++ {
		k.Predict()
		z := mathx.NewMatrixFrom(2, 1, []float64{
			float64(i) + rng.NormFloat64()*0.1,
			0.5*float64(i) + rng.NormFloat64()*0.1,
		})
		if _, err := k.Update(z); err != nil {
			t.Fatal(err)
		}
	}
	vx, vy := k.X.At(2, 0), k.X.At(3, 0)
	if math.Abs(vx-1) > 0.05 || math.Abs(vy-0.5) > 0.05 {
		t.Fatalf("velocity estimate (%.3f, %.3f), want (1, 0.5)", vx, vy)
	}
}

func TestPredictionCoastsThroughDropout(t *testing.T) {
	// With no measurements, prediction extrapolates along the velocity.
	k := ConstantVelocity2D(1, 1e-4, 0.1, 0, 0)
	for i := 1; i <= 50; i++ {
		k.Predict()
		z := mathx.NewMatrixFrom(2, 1, []float64{float64(i), 0})
		if _, err := k.Update(z); err != nil {
			t.Fatal(err)
		}
	}
	// Coast 10 steps without updates.
	for i := 0; i < 10; i++ {
		k.Predict()
	}
	x, _ := k.Position()
	if math.Abs(x-60) > 1 {
		t.Fatalf("coasted to x=%.2f, want ≈60", x)
	}
}

func TestInnovationShrinksWithAgreement(t *testing.T) {
	k := ConstantVelocity2D(1, 1e-4, 1, 5, 5)
	var last float64
	for i := 0; i < 20; i++ {
		k.Predict()
		y, err := k.Update(mathx.NewMatrixFrom(2, 1, []float64{5, 5}))
		if err != nil {
			t.Fatal(err)
		}
		last = math.Hypot(y.At(0, 0), y.At(1, 0))
	}
	if last > 0.01 {
		t.Fatalf("innovation %.4f did not vanish for consistent measurements", last)
	}
}

func TestUpdateRejectsBadMeasurement(t *testing.T) {
	k := ConstantVelocity2D(1, 1e-4, 1, 0, 0)
	if _, err := k.Update(mathx.NewMatrix(3, 1)); err == nil {
		t.Fatal("wrong measurement dimension accepted")
	}
}
