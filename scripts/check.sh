#!/bin/sh
# Full verification sequence — the same steps as `make check`, for
# environments without make. CI (.github/workflows/ci.yml) runs them too,
# beside the benchmark gates listed below.
#
# Not part of the check, and also make targets:
#   make bench = go run ./benchmarks/perf   (host-time benchmark, BENCHMARK.json)
#   make bench-allocs = sh scripts/alloc-ceilings.sh perf-bench.txt
#                (allocs_per_unit ceilings over the log of `make bench`)
#   make suite = go run ./cmd/tangobench -json -parallel 4 -grid 129 -steps 40 \
#                  -skip 10 -dataset 512 > bench-suite.json
#   make suite-check = the same command piped to `cmp - bench-baseline.json`
#                (the behaviour gate: byte-identity with the committed baseline)
#   make loc   = sh scripts/loc.sh (non-test Go lines and the exported
#                fields of the five config structs)
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

# The size ceilings CI gates (make loc-check), read from the Makefile.
echo '>> loc-check'
sh scripts/loc.sh "$(sed -n 's/^LOC_MAX = //p' Makefile)" "$(sed -n 's/^CONFIG_FIELDS_MAX = //p' Makefile)"

echo 'check: ok'
