#!/bin/sh
# Appends one JSON line per workload of a `make bench` log (default
# perf-bench.txt) to the committed performance series perf-history.jsonl:
#   {"workload": ..., "commit": ..., "date": ..., "benches": [{"name", "value", "unit"}, ...]}
# with every `metric` line of the workload in log order. Every line names
# a commit: $COMMIT when set, else the env line's, else (a log from
# `go run` says unknown there) `git describe --always` of a clean tree.
# A log that would be labelled with no commit — an unknown one, or a
# -dirty tree — is refused and nothing is appended: set COMMIT to the
# commit the log measured (`COMMIT=abc1234 make bench-record`). The env
# line has no date: the record is stamped with the time it was made
# (UTC). Reads the log, runs nothing.
set -eu
log=${1:-perf-bench.txt}
out=${2:-perf-history.jsonl}
override=${COMMIT:-}
fallback=$(git describe --always --dirty 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
lines=$(awk -v override="$override" -v fallback="$fallback" -v date="$date" '
function label(c) {
	if (override != "") return override
	if (c != "" && c != "unknown") return c
	if (fallback == "unknown" || fallback ~ /-dirty$/) bad = 1
	return fallback
}
$1 == "info" && $3 == "env" {
	for (i = 4; i <= NF; i++) if ($i ~ /^commit=/) commit[$2] = substr($i, 8)
}
$1 == "metric" {
	if (!($2 in benches)) { order[n++] = $2; benches[$2] = "" } else benches[$2] = benches[$2] ","
	v = ($4 ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/) ? $4 : "\"" $4 "\""
	benches[$2] = benches[$2] sprintf("{\"name\":\"%s\",\"value\":%s,\"unit\":\"%s\"}", $3, v, $5)
}
END {
	if (n == 0) { print "bench-record: no metric lines" > "/dev/stderr"; exit 1 }
	for (i = 0; i < n; i++) name[i] = label(commit[order[i]])
	if (bad) {
		print "bench-record: the log names no commit and the tree is " fallback "; set COMMIT to the commit it measured" > "/dev/stderr"
		exit 1
	}
	for (i = 0; i < n; i++) {
		w = order[i]
		printf "{\"workload\":\"%s\",\"commit\":\"%s\",\"date\":\"%s\",\"benches\":[%s]}\n", w, name[i], date, benches[w]
	}
}' "$log")
printf '%s\n' "$lines" >> "$out"
