#!/bin/sh
# Allocation ceilings over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. allocs_per_unit spreads < 0.3 % run to run, so
# unlike the timings a hard ceiling means something on a shared runner.
# Each sits ~5 % above what the workload allocates (node_quiet 0.3405,
# node_faulted 1.8674, fleet 2.0041, refactor 0.00455 at seed 42): both
# node_* figures are per-scenario set-up, so one object per step that
# creeps back onto the step path trips them.
awk -v lim='node_quiet=0.36 node_faulted=1.96 fleet=2.1 refactor=0.0048' '
BEGIN { n = split(lim, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[p[1]] = p[2] } }
$1 == "metric" && $3 == "allocs_per_unit" && ($2 in max) { seen[$2] = 1
	if ($4 + 0 > max[$2] + 0) { printf "alloc-ceilings: %s allocs_per_unit %s > %s\n", $2, $4, max[$2]; bad = 1 } }
END { for (w in max) if (!(w in seen)) { printf "alloc-ceilings: no allocs_per_unit for %s\n", w; bad = 1 }; exit bad }
' "${1:-perf-bench.txt}"
