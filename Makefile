# Tango build/check targets. `make check` is what CI runs
# (.github/workflows/ci.yml); scripts/check.sh is the same sequence for
# environments without make.

GO ?= go

.PHONY: all build vet lint lint-json fused-check race test check fuzz bench bench-allocs bench-digests bench-record bench-pairs suite suite-check loc loc-check clean

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

# No fused multiply-add in the simulator packages on arm64, ppc64le, s390x
# or riscv64 (scripts/fused-check.sh; compile-only, no emulator).
fused-check:
	sh scripts/fused-check.sh

race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

# Each fuzz target past its seed corpus for 20 s (go test fuzzes one
# target of one package per run). A failing input is written under that
# package's testdata/fuzz/; run it from a scratch copy to keep the tree clean.
FUZZ_TARGETS = FuzzSpec:./internal/harness FuzzParsePlan:./internal/fault \
	FuzzDecode:./internal/refactor FuzzParseTrace:./internal/workload

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}\$$" -fuzztime 20s "$${t#*:}" || exit 1; \
	done

# loc-check is CI's size gate too, so a change over a ceiling fails here first.
check: build vet lint fused-check race loc-check

# The repo's host-time benchmark (BENCHMARK.json, benchmarks/perf/README.md):
# four workloads, six gated end-to-end metrics, sim_digest output checks.
bench:
	$(GO) run ./benchmarks/perf

# Allocation ceilings over the log of `make bench > perf-bench.txt`: reads
# the file, runs nothing (CI makes the run once and gates it here).
bench-allocs:
	sh scripts/alloc-ceilings.sh perf-bench.txt

# The golden-digest gate over the same log: every workload must print
# `digest_changed false` (scripts/digest-check.sh; runs nothing).
bench-digests:
	sh scripts/digest-check.sh perf-bench.txt

# The performance series: appends the same log's metrics to the committed
# perf-history.jsonl, one line per workload (scripts/bench-record.sh;
# runs nothing). Timings are recorded there, not gated.
bench-record:
	sh scripts/bench-record.sh perf-bench.txt perf-history.jsonl

# Paired timing against revision BASE: N runs of each side per workload,
# alternating which goes first, appended to perf-history.jsonl as one
# {"kind":"pair"} line per workload and metric (scripts/bench-pairs.sh;
# label a dirty tree with CHANGE=<label>). A perf claim quotes these lines.
# N and WORKLOADS count only when given on the command line; the script
# owns their defaults (10 pairs, all four workloads).
cmdline = $(if $(filter command,$(origin $1)),$($1))

bench-pairs:
	sh scripts/bench-pairs.sh "$(BASE)" "$(call cmdline,N)" "$(call cmdline,WORKLOADS)"

# The behaviour gate: the CI-scale experiment suite must be byte-identical
# to the committed baseline (the simulator is bit-deterministic at every
# -parallel width). `suite` writes bench-suite.json; `suite-check` is the
# gate, run four jobs wide and then one (the later -parallel wins). Refresh
# bench-baseline.json in the same commit as any change that moves an
# output on purpose.
SUITE = $(GO) run ./cmd/tangobench -json -parallel 4 -grid 129 -steps 40 -skip 10 -dataset 512

suite:
	$(SUITE) > bench-suite.json

suite-check:
	$(SUITE) | cmp - bench-baseline.json
	$(SUITE) -parallel 1 | cmp - bench-baseline.json

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
LOC_MAX = 18867
CONFIG_FIELDS_MAX = 21

loc-check:
	@sh scripts/loc.sh $(LOC_MAX) $(CONFIG_FIELDS_MAX)

clean:
	$(GO) clean ./...
