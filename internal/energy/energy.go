// Package energy holds the power and energy units of the LEGaTO
// reproduction and a per-component energy report for the experiment
// harness. Energy itself is charged by the runtimes (taskrt task records,
// the fleet ledger), not metered here.
package energy

import (
	"fmt"
	"slices"
	"strings"
)

// Joules is an energy amount in joules.
type Joules = float64

// Watts is a power draw in watts.
type Watts = float64

// Report is a per-component energy summary for experiment output. Its rows
// stay sorted by component name, so Total and String add and print in one
// order whatever order the components arrived in.
type Report struct {
	rows []row
}

type row struct {
	name string
	j    Joules
}

// NewReport creates an empty report.
func NewReport() *Report { return &Report{} }

// find returns the index of component's row, or where it would go.
func (r *Report) find(component string) (int, bool) {
	return slices.BinarySearchFunc(r.rows, component, func(x row, name string) int {
		return strings.Compare(x.name, name)
	})
}

// Add deposits energy attributed to a component.
func (r *Report) Add(component string, j Joules) {
	i, ok := r.find(component)
	if !ok {
		r.rows = slices.Insert(r.rows, i, row{name: component})
	}
	r.rows[i].j += j
}

// Get returns the energy attributed to a component.
func (r *Report) Get(component string) Joules {
	if i, ok := r.find(component); ok {
		return r.rows[i].j
	}
	return 0
}

// Total returns the summed energy over all components, added in name order.
func (r *Report) Total() Joules {
	t := Joules(0)
	for _, x := range r.rows {
		t += x.j
	}
	return t
}

// String renders the report as an aligned table, components sorted by name.
func (r *Report) String() string {
	s := fmt.Sprintf("%-24s %12s\n", "component", "energy (J)")
	for _, x := range r.rows {
		s += fmt.Sprintf("%-24s %12.3f\n", x.name, x.j)
	}
	s += fmt.Sprintf("%-24s %12.3f\n", "TOTAL", r.Total())
	return s
}
