package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a thread-safe counter store for the concurrent job engine:
// per-scope metric accumulators in the spirit of the HEATS telemetry
// module, but fed by the engine's fold over each job's lifecycle events
// instead of polling. Scopes follow a "kind/name" convention —
// "job/<name>" for per-job counters
// (tasks-queued, tasks-running, tasks-completed, energy-J, makespan-s) and
// "device/<id>" for per-device counters (tasks-completed, energy-J,
// busy-s) — though the registry itself is agnostic.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]map[string]float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]map[string]float64)}
}

func (r *Registry) metricsLocked(scope string) map[string]float64 {
	m, ok := r.scopes[scope]
	if !ok {
		m = make(map[string]float64)
		r.scopes[scope] = m
	}
	return m
}

// Add accumulates delta onto a scoped metric.
func (r *Registry) Add(scope, metric string, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metricsLocked(scope)[metric] += delta
}

// Set overwrites a scoped metric.
func (r *Registry) Set(scope, metric string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metricsLocked(scope)[metric] = v
}

// Get returns a scoped metric (zero when never written).
func (r *Registry) Get(scope, metric string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scopes[scope][metric]
}

// Scopes lists all scopes in sorted order.
func (r *Registry) Scopes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.scopes))
	for s := range r.scopes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ScopeSnapshot returns a copy of one scope's metrics.
func (r *Registry) ScopeSnapshot(scope string) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.scopes[scope]))
	for k, v := range r.scopes[scope] {
		out[k] = v
	}
	return out
}

// Snapshot returns a deep copy of every scope's metrics, taken under one
// lock acquisition — an atomic, consistent view exporters can walk while
// live writers keep accumulating.
func (r *Registry) Snapshot() map[string]map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[string]float64, len(r.scopes))
	for scope, metrics := range r.scopes {
		m := make(map[string]float64, len(metrics))
		for k, v := range metrics {
			m[k] = v
		}
		out[scope] = m
	}
	return out
}

// Report renders every scope's metrics as an aligned table.
func (r *Registry) Report() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	scopes := make([]string, 0, len(r.scopes))
	for s := range r.scopes {
		scopes = append(scopes, s)
	}
	sort.Strings(scopes)
	var sb strings.Builder
	for _, s := range scopes {
		fmt.Fprintf(&sb, "%s\n", s)
		metrics := make([]string, 0, len(r.scopes[s]))
		for m := range r.scopes[s] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			fmt.Fprintf(&sb, "  %-20s %14.4f\n", m, r.scopes[s][m])
		}
	}
	return sb.String()
}
