#!/bin/sh
# Fused multiply-add gate. The arm64, ppc64le, s390x and riscv64 compilers
# may fuse x*y + z into one instruction that rounds once, where amd64
# rounds the product and the sum apart, so a fused site computes different
# bits on those machines. The simulator packages (lint.DefaultSimPackages
# and every package they import: all of internal/ but lint) write an
# explicit rounding, float64(x*y) + z, at every such site: the compiler
# may not fuse across a conversion. This builds those packages with
# -gcflags=-S for the four architectures and fails on any fused
# instruction, naming its file and line. Compile-only: it needs no
# emulator. See docs/determinism.md.
set -eu

cd "$(dirname "$0")/.."

pkgs=$(go list ./internal/... | grep -v '/internal/lint$')

bad=0
for arch in arm64 ppc64le s390x riscv64; do
	# shellcheck disable=SC2086
	asm=$(GOARCH=$arch go build -gcflags=-S $pkgs 2>&1) || { printf '%s\n' "$asm"; exit 1; }
	fused=$(printf '%s\n' "$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' || true)
	n=$(printf '%s' "$fused" | grep -c . || true)
	echo "fused-check: $arch: $n fused instruction(s)"
	if [ "$n" -gt 0 ]; then
		printf '%s\n' "$fused" | sed -E "s|.*\\($PWD/([^)]*)\\)[[:space:]]+([A-Z]+).*|  \\1 \\2|"
		bad=1
	fi
done
exit $bad
