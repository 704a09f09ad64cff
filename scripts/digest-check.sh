#!/bin/sh
# Golden-digest gate over a `make bench` log (default perf-bench.txt). Reads
# the file, runs nothing. benchmarks/perf hashes each workload's simulated
# outputs (sim_digest) and compares the hash with benchmarks/perf/golden.json;
# the run itself only prints the verdict as an info line. This fails unless
# the log has `info <workload> digest_changed false` for each of the four
# workloads, so a change that moves a simulated byte fails CI instead of
# passing with a note.
awk -v want='refactor node_quiet node_faulted fleet' '
BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) need[w[i]] = 1 }
$1 == "info" && $3 == "digest_changed" && ($2 in need) { seen[$2] = $4 }
END {
	for (i = 1; i <= n; i++) {
		if (!(w[i] in seen)) { printf "digest-check: no digest_changed line for %s\n", w[i]; bad = 1 }
		else if (seen[w[i]] != "false") { printf "digest-check: %s digest_changed %s\n", w[i], seen[w[i]]; bad = 1 }
	}
	exit bad
}' "${1:-perf-bench.txt}"
