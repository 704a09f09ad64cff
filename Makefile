# Tango build/check targets. `make check` is what CI runs
# (.github/workflows/ci.yml); scripts/check.sh is the same sequence for
# environments without make.

GO ?= go

.PHONY: all build vet lint lint-json race test check bench bench-allocs suite suite-check loc loc-check clean

all: build

build:
	$(GO) build ./...

# go vet is the copied-lock gate (copylocks): tangolint leaves that check
# to it.
vet:
	$(GO) vet ./...

# tangolint: the project's own static-analysis suite (internal/lint).
# See docs/lint.md for the analyzers and the //lint:ignore escape hatch.
lint:
	$(GO) run ./cmd/tangolint ./...

# Machine-readable findings (file/line/analyzer/message/witness) for CI
# artifacts; writes tangolint.json and still fails on findings.
lint-json:
	$(GO) run ./cmd/tangolint -json ./... > tangolint.json

race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

# loc-check is CI's size gate too, so a change over a ceiling fails here first.
check: build vet lint race loc-check

# The repo's host-time benchmark (BENCHMARK.json, benchmarks/perf/README.md):
# four workloads, six gated end-to-end metrics, sim_digest output checks.
bench:
	$(GO) run ./benchmarks/perf

# Allocation ceilings over the log of `make bench > perf-bench.txt`: reads
# the file, runs nothing (CI makes the run once and gates it here).
bench-allocs:
	sh scripts/alloc-ceilings.sh perf-bench.txt

# The behaviour gate: the CI-scale experiment suite must be byte-identical
# to the committed baseline (the simulator is bit-deterministic at every
# -parallel width). `suite` writes bench-suite.json; `suite-check` is the
# gate. Refresh bench-baseline.json in the same commit as any change that
# moves an output on purpose.
SUITE = $(GO) run ./cmd/tangobench -json -parallel 4 -grid 129 -steps 40 -skip 10 -dataset 512

suite:
	$(SUITE) > bench-suite.json

suite-check:
	$(SUITE) | cmp - bench-baseline.json

# The two sizes the simplicity aim tracks (ROADMAP aim 2): non-test Go
# lines, and the exported fields of the five config structs
# (scripts/loc.sh counts both).
loc:
	@sh scripts/loc.sh

# Ceilings on loc's two figures, set to what the caller audits left and
# held by the PRs since, which paid for their lines with deletions (the
# same idea as scripts/alloc-ceilings.sh: the number that was bought is
# held). Lower them with the next audit; raise one only in the PR that
# says what the lines or the option bought.
LOC_MAX = 20053
CONFIG_FIELDS_MAX = 25

loc-check:
	@sh scripts/loc.sh $(LOC_MAX) $(CONFIG_FIELDS_MAX)

clean:
	$(GO) clean ./...
