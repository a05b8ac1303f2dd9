// Package a declares the names the test-only-API pass judges. Its fixture
// tree, rooted at testdata/testonly, has the module path "fixture".
package a

// TestOnly is referenced only from a_test.go: flagged.
func TestOnly() int { return 1 }

// Allowed is referenced only from a_test.go but allowlisted.
func Allowed() int { return 2 }

// Used is referenced from package b.
func Used() int { return 3 }

// Sum is referenced from package b through an instantiation.
func Sum[T int | float64](xs ...T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// Namer is implemented by T.
type Namer interface{ Name() string }

// T is referenced from package b.
type T struct{}

// Name satisfies Namer, and String satisfies fmt.Stringer; no file calls
// either.
func (T) Name() string   { return "t" }
func (T) String() string { return "t" }

// Spare is referenced only from a_test.go: flagged.
func (T) Spare() int { return 4 }

// Orphan is referenced only from a_test.go and its own method's receiver:
// flagged.
type Orphan struct{}

// Name satisfies Namer.
func (Orphan) Name() string { return "orphan" }

// Box is referenced from package b through an instantiation.
type Box[V any] struct{ v V }

// Get is called from package b on an instantiation of Box.
func (b Box[V]) Get() V { return b.v }
