GO ?= go

.PHONY: all build test check race bench fuzz fmt

all: check

build:
	$(GO) build ./...

# Tier-1: everything must build and every test pass, the design rules of
# internal/rules among them.
test: build
	$(GO) test ./...

# Race-enabled pass over the whole module. The one exclusion is
# starlink/bench: its test asserts flows per 10 ms slice and fails on the
# race build's slowdown, not on a race.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^starlink/bench$$')

# The full gate: tier-1, gofmt, vet, the race pass, then the engine's and
# the MTL package's tests fifty times in shuffled order, so a counter or
# trace published after the reply it belongs to, or session cache state
# (slabs, loans) carried wrongly from one Exec to the next, shows up as a
# flake here and not in tier-1.
check: test
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l .; echo 'check: the files above are not gofmt-formatted; run make fmt'; exit 1; fi
	$(GO) vet ./...
	$(MAKE) race
	$(GO) test -count=50 -shuffle=on -timeout 30m ./internal/engine
	$(GO) test -count=50 -shuffle=on ./internal/mtl

# The one benchmark: what a mediated flow costs beside the native call,
# end to end and layer by layer. This is the command in BENCHMARK.json;
# bench/README.md has the workloads, metrics, options and noise floor.
bench:
	$(GO) run ./bench

# Short coverage-guided fuzz passes over everything that parses
# untrusted bytes. The target list is whatever `go test -list` finds, one
# -fuzz run per target, so a Fuzz function cannot exist without running
# here. FUZZTIME can be raised for a longer local soak. Minimizing a new
# input tries removing every pair of byte ranges, so a multi-kilobyte model
# file as seed would spend the whole pass minimizing its first find; 1000
# runs bound it.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { names[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, names[i]; n = 0 }' | \
	while read pkg name; do \
		echo "fuzz $$pkg $$name"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x || exit 1; \
	done

fmt:
	gofmt -l -w .
