#!/bin/sh
# Allocation ceilings over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. allocs_per_unit and alloc_kb_per_unit spread
# < 0.3 % run to run, so unlike the timings a hard ceiling means something
# on a shared runner. Objects sit ~4-5 % above what the workload allocates
# (node_quiet 0.15806, node_faulted 0.74311, fleet 0.13185, refactor 0.000867
# at seed 42): every figure is set-up — per scenario on node_*, per session on
# fleet — so one object per step or per session that creeps back trips them.
# Bytes are what a chunk policy that trades objects for half-filled chunks
# moves first: fleet's sits 4.5 % above 0.09099 KiB; node_quiet's, node_faulted's
# and refactor's, set 2 % above earlier figures, now sit 0.9 %, 1.8 % and 2 %
# above 0.31482, 0.52872 and 0.22064 KiB (no ceiling is raised). Before a fleet
# node's registries were sized once for its arrivals, an epoch took one window
# task per worker and a device took its flows from chunks (with its plan's
# timers one calendar on node_faulted): 0.1693, 0.7991 and 0.2458 objects,
# 0.10619 KiB on fleet.
awk -v objs='node_quiet=0.165 node_faulted=0.777 fleet=0.138 refactor=0.00091' \
    -v kib='node_quiet=0.3175 node_faulted=0.538 fleet=0.0951 refactor=0.2251' '
function limits(list, metric,    n, kv, p, i) {
	n = split(list, kv, " ")
	for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[metric, p[1]] = p[2] }
}
BEGIN { limits(objs, "allocs_per_unit"); limits(kib, "alloc_kb_per_unit") }
$1 == "metric" && (($3, $2) in max) { seen[$3, $2] = 1
	if ($4 + 0 > max[$3, $2] + 0) { printf "alloc-ceilings: %s %s %s > %s\n", $2, $3, $4, max[$3, $2]; bad = 1 } }
END { for (k in max) if (!(k in seen)) { split(k, p, SUBSEP); printf "alloc-ceilings: no %s for %s\n", p[1], p[2]; bad = 1 }; exit bad }
' "${1:-perf-bench.txt}"
