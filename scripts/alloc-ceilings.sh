#!/bin/sh
# Allocation ceilings over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. allocs_per_unit and alloc_kb_per_unit spread
# < 0.3 % run to run, so unlike the timings a hard ceiling means something
# on a shared runner. Objects sit ~4-5 % above what the workload allocates
# (node_quiet 0.1693, node_faulted 0.7991, fleet 0.2458, refactor 0.000866 at
# seed 42): every figure is set-up — per scenario on node_*, per session on
# fleet — so one object per step or per session that creeps back trips them.
# Bytes were set 2 % above 0.31122, 0.52696, 0.10944 and 0.22064 KiB: what a
# chunk policy that trades objects for half-filled chunks moves first. The
# session's step state and its callback reads live on the session now, and
# a session given no controller reads through its node's adhoc controller
# (one 2 KiB object per node): 0.31547 and 0.53329 KiB on node_quiet and
# node_faulted, inside them.
# fleet holds a step op per step in flight, and its step starts queue one
# calendar slot per node instead of an event each (0.2832 objects and
# 0.11276 KiB before). A device keeps its flow groups from issue to drain
# and water-fills in place, with no index slices to grow (0.1826, 0.8561
# and 0.2674 objects and fleet's 0.10801 KiB before; fleet's bytes now
# 0.10620).
awk -v objs='node_quiet=0.178 node_faulted=0.839 fleet=0.258 refactor=0.00091' \
    -v kib='node_quiet=0.3175 node_faulted=0.538 fleet=0.1083 refactor=0.2251' '
function limits(list, metric,    n, kv, p, i) {
	n = split(list, kv, " ")
	for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[metric, p[1]] = p[2] }
}
BEGIN { limits(objs, "allocs_per_unit"); limits(kib, "alloc_kb_per_unit") }
$1 == "metric" && (($3, $2) in max) { seen[$3, $2] = 1
	if ($4 + 0 > max[$3, $2] + 0) { printf "alloc-ceilings: %s %s %s > %s\n", $2, $3, $4, max[$3, $2]; bad = 1 } }
END { for (k in max) if (!(k in seen)) { split(k, p, SUBSEP); printf "alloc-ceilings: no %s for %s\n", p[1], p[2]; bad = 1 }; exit bad }
' "${1:-perf-bench.txt}"
