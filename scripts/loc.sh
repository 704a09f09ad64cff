#!/bin/sh
# The two sizes the simplicity aim tracks (ROADMAP aim 2): non-test Go
# lines, and the exported fields (= independently settable options) of
# the five config structs.
#
#   sh scripts/loc.sh               print both figures (make loc)
#   sh scripts/loc.sh LINES FIELDS  also fail when a figure exceeds its
#                                   ceiling (make loc-check, scripts/check.sh;
#                                   the ceilings are LOC_MAX and
#                                   CONFIG_FIELDS_MAX in the Makefile)
set -eu

cd "$(dirname "$0")/.."

lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path '*/testdata/*' | xargs cat | wc -l | tr -d ' ')
echo "non-test Go lines: $lines"
fields=0
for s in internal/core/policy.go:Config internal/cache/cache.go:Config \
	internal/tokenctl/tokenctl.go:Options internal/resil/resil.go:Options \
	internal/resil/resil.go:HedgeConfig; do
	f=${s%%:*}
	n=${s##*:}
	c=$(awk -v n="$n" '$0 == "type " n " struct {" {on=1; next} on && /^}/ {on=0} on && /^\t[A-Z]/ {c++} END {print c+0}' "$f")
	echo "exported fields $f $n: $c"
	fields=$((fields + c))
done
echo "exported config fields: $fields"

[ $# -eq 2 ] || exit 0
bad=0
[ "$lines" -le "$1" ] || { echo "loc-check: $lines non-test Go lines > $1"; bad=1; }
[ "$fields" -le "$2" ] || { echo "loc-check: $fields exported config fields > $2"; bad=1; }
exit $bad
