#!/bin/sh
# Allocation ceilings over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. allocs_per_unit and alloc_kb_per_unit spread
# < 0.3 % run to run, so unlike the timings a hard ceiling means something
# on a shared runner. Objects sit ~4-5 % above what the workload allocates
# (node_quiet 0.09903, node_faulted 0.48652, fleet 0.08365, refactor
# 0.000654 at seed 42): every figure is set-up — per scenario on node_*,
# per session on fleet — so one object per step or per session that creeps
# back trips them. Bytes sit ~2 % above (node_quiet 0.23438, node_faulted
# 0.36799, fleet 0.07538, refactor 0.12900 KiB).
# Before a step's record shrank from 136 to 104 bytes and a bucket's from
# 48 to 40, the buckets planned straight into the session's bucket log,
# and Summarize sorted its copy on the stack, node_quiet read 0.10069
# objects and 0.28314 KiB and node_faulted 0.49485 and 0.41831 (ceilings
# 0.1052 and 0.2888, 0.5171 and 0.4267).
# Before a par fan-out's caller drained chunks beside min(GOMAXPROCS,
# chunks)-1 helpers off one loop state, refactor read 0.000811 objects
# (ceiling 0.00085); before weightfn.Func and resil.Breaker lost their
# unread fields, node_faulted read 0.41853 KiB (ceiling 0.4269).
# Before each level's augmentation stream was an index and a value column
# (12 bytes an entry) sorted through Decompose's work field, refactor read
# 0.000815 objects and 0.14508 KiB (ceiling 0.1480).
# Before the Table IV interferers read their jitter from draws tabled once
# per process, a refit kept its window and spectrum on its stack and a
# hierarchy built its retrieval index at its first read, node_quiet read
# 0.11319 objects and 0.31396 KiB, node_faulted 0.54485 and 0.50519, fleet
# 0.08490 and 0.07568, refactor 0.000821 and 0.15975 (ceilings 0.1183 and
# 0.3173, 0.5694 and 0.5153, 0.0887 and 0.0775, 0.00086 and 0.163).
# Before staging reserved whole bytes without closures, node_quiet and
# node_faulted read 0.14153 and 0.68513 (ceilings 0.1478 and 0.716).
# Bytes are what a chunk policy that trades objects for half-filled chunks
# moves first: fleet's sits 2 % above 0.07600 KiB (2.4 % above 0.07568 now),
# node_faulted's 2 % above 0.50519 and refactor's 2 % above 0.15975;
# node_quiet's, set 2 % above an earlier figure, now sits 1 % above 0.31396
# (no ceiling is raised).
# Before a device kept its flow and group tables inline, a fleet node chained
# its free step ops, a device spelled its two error texts in one string, the
# registries were made once, the estimator's scratch grew by doubling, the
# fault injector kept its open windows in one slice and BytesForRange walked
# a stack array, fleet read 0.11091 objects, node_quiet 0.13653 and
# node_faulted 0.66013 objects and 0.51697 KiB (ceilings 0.1159, 0.1434,
# 0.693 and 0.5273).
# Before a fleet node stopped owning a step calendar and the weight
# allocator dropped its per-weight count table, fleet read 0.11326 objects
# and 0.08962 KiB and node_faulted 0.52339 KiB (ceilings 0.1185, 0.0937 and
# 0.5348).
# Before the GenASiS outcome check rendered rows instead of whole fields and
# Decompose stopped copying the base Restrict had just built, refactor read
# 0.000834 objects and 0.18587 KiB (ceilings 0.000875 and 0.1896).
# Before the refactoring pipeline wrote each full grid once (Encode sized
# once, no error field in the ladder sweep, no masks or bool visited set in
# the outcome checks), refactor read 0.000867 objects and 0.22064 KiB
# (ceilings 0.00091 and 0.2251).
# Before the engine and each device chained their free structs through
# storage they already had, a device event told its ended flows through
# zero-delay events of their own: 0.15472, 0.73478 and 0.12933 objects. Before
# a fleet node's registries were sized once for its arrivals, an epoch took
# one window task per worker, a device took its flows from chunks (with its
# plan's timers one calendar on node_faulted) and a device's completion timer
# was a closure: 0.1693, 0.7991 and 0.2458 objects, 0.10619 KiB on fleet.
awk -v objs='node_quiet=0.1035 node_faulted=0.5084 fleet=0.0874 refactor=0.000683' \
    -v kib='node_quiet=0.2391 node_faulted=0.3754 fleet=0.0769 refactor=0.1316' '
function limits(list, metric,    n, kv, p, i) {
	n = split(list, kv, " ")
	for (i = 1; i <= n; i++) { split(kv[i], p, "="); max[metric, p[1]] = p[2] }
}
BEGIN { limits(objs, "allocs_per_unit"); limits(kib, "alloc_kb_per_unit") }
$1 == "metric" && (($3, $2) in max) { seen[$3, $2] = 1
	if ($4 + 0 > max[$3, $2] + 0) { printf "alloc-ceilings: %s %s %s > %s\n", $2, $3, $4, max[$3, $2]; bad = 1 } }
END { for (k in max) if (!(k in seen)) { split(k, p, SUBSEP); printf "alloc-ceilings: no %s for %s\n", p[1], p[2]; bad = 1 }; exit bad }
' "${1:-perf-bench.txt}"
