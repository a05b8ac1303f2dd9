// Package maprange is the map-order pass's fixture: one range over a map,
// which the pass flags, and one over a sorted slice, which it does not.
package maprange

import "sort"

// total ranges over a map.
func total(draws map[string]float64) float64 {
	sum := 0.0
	for _, w := range draws {
		sum += w
	}
	return sum
}

// scopes ranges over a sorted slice.
func scopes(ids []string) []string {
	sort.Strings(ids)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, "device/"+id)
	}
	return out
}
