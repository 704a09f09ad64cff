#!/bin/sh
# Appends one JSON line per workload of a `make bench` log (default
# perf-bench.txt) to the committed performance series perf-history.jsonl:
#   {"workload": ..., "commit": ..., "date": ..., "benches": [{"name", "value", "unit"}, ...]}
# with every `metric` line of the workload in log order. The commit is
# $COMMIT when set, else the env line's; a log from `go run` says unknown
# there, and a build of a modified tree names the commit it sits on, so
# the fallback is `git describe --always --dirty`. The env line has no
# date: the record is stamped with the time it was made (UTC). Reads the
# log, runs nothing.
set -eu
log=${1:-perf-bench.txt}
out=${2:-perf-history.jsonl}
override=${COMMIT:-}
fallback=$(git describe --always --dirty 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
awk -v override="$override" -v fallback="$fallback" -v date="$date" '
$1 == "info" && $3 == "env" {
	c = fallback
	for (i = 4; i <= NF; i++) if ($i ~ /^commit=/ && $i != "commit=unknown") c = substr($i, 8)
	commit[$2] = (override != "") ? override : c
}
$1 == "metric" {
	if (!($2 in benches)) { order[n++] = $2; benches[$2] = "" } else benches[$2] = benches[$2] ","
	v = ($4 ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/) ? $4 : "\"" $4 "\""
	benches[$2] = benches[$2] sprintf("{\"name\":\"%s\",\"value\":%s,\"unit\":\"%s\"}", $3, v, $5)
}
END {
	if (n == 0) { print "bench-record: no metric lines" > "/dev/stderr"; exit 1 }
	for (i = 0; i < n; i++) {
		w = order[i]
		printf "{\"workload\":\"%s\",\"commit\":\"%s\",\"date\":\"%s\",\"benches\":[%s]}\n", w, (w in commit) ? commit[w] : (override != "" ? override : fallback), date, benches[w]
	}
}' "$log" >> "$out"
