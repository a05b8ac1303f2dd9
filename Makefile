# Tier-1 verification entry point (see ROADMAP.md): `make ci` is what a
# reviewer runs to accept a change.

GO ?= go

.PHONY: ci vet lint build test race fuzz examples bench-module bench bench-short bench-taskrt bench-power run-bench clean

ci: vet lint build race fuzz examples bench-module bench-short

vet:
	$(GO) vet ./...

# Static passes over the runtime packages (see cmd/legato-lint): ignored
# error returns, wall-clock reads in fleet-time code, and operator output
# (fmt/log printing) that should flow through the event bus instead.
lint:
	$(GO) run ./cmd/legato-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short native-fuzzing budget: the session-dump encoder against the
# encoding/json oracle, plus the decode round trip.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSessionDumpEncode$$' -fuzztime 10s ./internal/obs

# Build and run every example program; a non-zero exit fails the step.
# examples/observe writes its artifacts (gitignored) to the working directory.
examples:
	@set -e; for d in examples/*/; do echo "run $$d"; $(GO) run ./$$d > /dev/null; done

# The benchmark harness (bench/) is its own module, so the root ./...
# patterns skip it; vet and test it against the current tree.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark — smoke-checks the experiment
# harness plus the E11 >= 2x throughput, E12 <= 1.5x inflation,
# E13 power-cap/EDP, and observer-overhead (armed-idle bus within 3%
# of the bus-free baseline) gates without a full run.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x ./...

# The taskrt dispatch ladder: ns/task and allocs/task at 10^2..10^4 tasks.
bench-taskrt:
	$(GO) test -run '^$$' -bench Dispatch -benchmem -benchtime 3x ./internal/taskrt

# The fleet ledger's microbenchmarks: Claim+Release alone and contended, and
# the lock-free reads (Epoch, Draw, Changed) a job makes every round.
bench-power:
	$(GO) test -run '^$$' -bench Ledger -benchmem ./internal/power

# Regenerate every paper table/figure (add QUICK=1 for smaller sweeps).
run-bench:
	$(GO) run ./cmd/legato-bench $(if $(QUICK),-quick)

clean:
	$(GO) clean ./...
