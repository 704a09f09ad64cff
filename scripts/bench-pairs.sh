#!/bin/sh
# Paired timing (`make bench-pairs BASE=<rev> N=10 [WORKLOADS=...]`): runs
# the benchmarks/perf of revision BASE and of the working tree N times on
# each workload, alternating which of the two runs first, and appends one
# line per workload and metric to the committed series perf-history.jsonl.
# A fifth argument, ARGS, gives both binaries extra flags (`sh
# scripts/bench-pairs.sh <rev> 1 refactor perf-history.jsonl "-seed 7"`):
#   {"kind":"pair","workload","metric","unit","base","change","date","n",
#    "args" (only when ARGS is set),
#    "base_median","base_q1","base_q3","base_min","base_max", the same five
#    for "change_", "ratio_median","wins"}
# The quartiles interpolate between runs. ratio_median is the median over
# the N pairs of change/base; wins counts the pairs the change won (higher
# is better where BENCHMARK.json says so, lower for every other metric).
# Runs of one commit made at different times drift apart, while a pair's
# two runs are made back to back: the ratio is the figure, and a perf
# claim quotes it with its win count. A line without "kind" is a point
# (scripts/bench-record.sh).
#
# BASE is exported with `git archive` into a temporary directory, so it is
# local and leaves nothing registered in the repository; each side's
# binary is built once, and each runs from its own tree. The change is
# labelled $CHANGE, else `git describe --always` of a clean tree: a dirty
# tree needs CHANGE. An empty N or WORKLOADS argument takes its default
# (10 pairs, all four workloads). Nothing is appended unless every run
# succeeds.
set -eu
base=${1:?usage: bench-pairs.sh BASE [N] [WORKLOADS] [OUT] [ARGS]}
n=${2:-10}
workloads=${3:-refactor node_quiet node_faulted fleet}
out=${4:-perf-history.jsonl}
args=${5:-}
root=$(git rev-parse --show-toplevel)
base_label=$(git rev-parse --short "$base^{commit}")
change_label=${CHANGE:-$(git describe --always --dirty)}
case $change_label in *-dirty)
	echo "bench-pairs: the tree is $change_label; set CHANGE to label it" >&2
	exit 1
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_label" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/base.bin" ./benchmarks/perf)
(cd "$root" && go build -o "$tmp/change.bin" ./benchmarks/perf)

# run SIDE I W: one run of workload W, its metric lines kept as
# "side i workload metric value unit".
run() {
	dir=$root
	[ "$1" = base ] && dir=$tmp/base
	echo "bench-pairs: pair $2/$n $3 $1" >&2
	# shellcheck disable=SC2086 # ARGS is a list of flags
	(cd "$dir" && "$tmp/$1.bin" -workload "$3" $args) >"$tmp/log"
	awk -v side="$1" -v i="$2" '$1 == "metric" { print side, i, $2, $3, $4, $5 }' "$tmp/log" >>"$tmp/runs"
}
i=1
while [ "$i" -le "$n" ]; do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then run base "$i" "$w"; run change "$i" "$w"
		else run change "$i" "$w"; run base "$i" "$w"; fi
	done
	i=$((i + 1))
done

date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
awk -v base="$base_label" -v change="$change_label" -v date="$date" -v n="$n" -v args="$args" '
function sort(a, k, s,    i, j, t) {
	for (i = 1; i <= k; i++) s[i] = a[i]
	for (i = 2; i <= k; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
}
function q(s, k, p,    x, i) { x = 1 + (k - 1) * p; i = int(x); return i < k ? s[i] + (x - i) * (s[i + 1] - s[i]) : s[k] }
function median(a, k,    s) { sort(a, k, s); return q(s, k, 0.5) }
function stats(side, a, k,    s) {  # "side_median":...,"side_max":... of a
	sort(a, k, s)
	return sprintf("\"%s_median\":%.7g,\"%s_q1\":%.7g,\"%s_q3\":%.7g,\"%s_min\":%.7g,\"%s_max\":%.7g,",
		side, q(s, k, 0.5), side, q(s, k, 0.25), side, q(s, k, 0.75), side, s[1], side, s[k])
}
FILENAME == ARGV[1] {  # BENCHMARK.json: "better" precedes its metric'\''s "name"
	if ($1 == "\"better\":") { better = $2; gsub(/[",]/, "", better) }
	if ($1 == "\"name\":" && better != "") { name = $2; gsub(/[",]/, "", name); higher[name] = better == "higher"; better = "" }
	next
}
{
	k = $3 SUBSEP $4
	if (!(k in unit)) { order[m++] = k; unit[k] = $6 }
	v[$1, k, $2] = $5 + 0
}
END {
	for (o = 0; o < m; o++) {
		k = order[o]; split(k, wm, SUBSEP)
		wins = 0
		for (i = 1; i <= n; i++) {
			b[i] = v["base", k, i]; c[i] = v["change", k, i]
			r[i] = b[i] != 0 ? c[i] / b[i] : 1  # a zero base (failed_frac): the medians tell
			if (higher[wm[2]] ? c[i] > b[i] : c[i] < b[i]) wins++
		}
		printf "{\"kind\":\"pair\",\"workload\":\"%s\",\"metric\":\"%s\",\"unit\":\"%s\",\"base\":\"%s\",\"change\":\"%s\",\"date\":\"%s\",\"n\":%d,", wm[1], wm[2], unit[k], base, change, date, n
		if (args != "") printf "\"args\":\"%s\",", args
		printf "%s%s", stats("base", b, n), stats("change", c, n)
		printf "\"ratio_median\":%.7g,\"wins\":%d}\n", median(r, n), wins
	}
}' "$root/BENCHMARK.json" "$tmp/runs" >"$tmp/pairs"
cat "$tmp/pairs" >>"$out"
cat "$tmp/pairs"
