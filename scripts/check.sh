#!/bin/sh
# Full verification sequence — the same steps as `make check` and CI
# (.github/workflows/ci.yml), for environments without make.
#
# Not part of the check, and also make targets:
#   make bench = go run ./benchmarks/perf   (host-time benchmark, BENCHMARK.json)
#   make bench-allocs = sh scripts/alloc-ceilings.sh perf-bench.txt
#                (allocs_per_unit ceilings over the log of `make bench`)
#   make suite = go run ./cmd/tangobench -json -parallel 4 -grid 129 -steps 40 \
#                  -skip 10 -dataset 512 > bench-suite.json
#   make suite-check = the same command piped to `cmp - bench-baseline.json`
#                (the behaviour gate: byte-identity with the committed baseline)
#   make loc   = non-test Go lines:
#                find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' \
#                  -not -path '*/testdata/*' | xargs cat | wc -l
#                plus the exported-field count of core.Config, cache.Config,
#                tokenctl.Options, resil.Options and resil.HedgeConfig (awk
#                over the struct bodies; see the Makefile)
#   make loc-check = fails when either figure exceeds LOC_MAX / CONFIG_FIELDS_MAX
set -eu

cd "$(dirname "$0")/.."

echo '>> go build ./...'
go build ./...

# go vet is the copied-lock gate (copylocks); tangolint does not check it.
echo '>> go vet ./...'
go vet ./...

echo '>> tangolint ./...'
go run ./cmd/tangolint ./...

echo '>> go test -race ./...'
go test -race ./...

echo 'check: ok'
