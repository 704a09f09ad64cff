#!/bin/sh
# Allocation ceilings over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. allocs_per_unit spreads < 0.3 % run to run, so
# unlike the timings a hard ceiling means something on a shared runner.
awk -v lim='node_quiet=1.0 node_faulted=10 fleet=2.1 refactor=0.0048' '
BEGIN { n = split(lim, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[p[1]] = p[2] } }
$1 == "metric" && $3 == "allocs_per_unit" && ($2 in max) { seen[$2] = 1
	if ($4 + 0 > max[$2] + 0) { printf "alloc-ceilings: %s allocs_per_unit %s > %s\n", $2, $4, max[$2]; bad = 1 } }
END { for (w in max) if (!(w in seen)) { printf "alloc-ceilings: no allocs_per_unit for %s\n", w; bad = 1 }; exit bad }
' "${1:-perf-bench.txt}"
