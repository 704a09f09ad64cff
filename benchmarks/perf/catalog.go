package main

// The metric catalogue. BENCHMARK.json lists the same names, units and
// bounds; perf_test.go fails when the two drift apart.

type metricDef struct {
	name, unit, better string
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	bound float64
}

// endToEnd is reported by every workload of the untraced run.
// failed_frac is printed beside these but is not one of them: it is 0
// on a healthy run, so a relative bound cannot gate it — the result
// line's "failed" count does.
var endToEnd = []metricDef{
	{"units_per_s", "units/s", "higher", 0.25},
	{"cpu_ms_per_kunit", "ms", "lower", 0.25},
	{"allocs_per_unit", "objects", "lower", 0.02},
	{"alloc_kb_per_unit", "KiB", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// layers are the module names CPU samples are attributed to; "runtime"
// (scheduler, goroutine switches, GC, allocation) and "other" (this
// driver, the root package, stdlib called from either) complete the sum.
var layers = []string{
	"sim", "device", "blkio", "container", "workload", "dftestim", "weightfn", "abplot",
	"coordinator", "tokenctl", "staging", "cache", "resil", "fault", "core", "objstore",
	"fleet", "runpool", "par", "refactor", "tensor", "errmetric", "synth", "analytics", "trace",
}

var (
	onRefactor = []string{"refactor"}
	onNode     = []string{"node_quiet", "node_faulted"}
	onFleet    = []string{"fleet"}
	onSim      = []string{"node_quiet", "node_faulted", "fleet"}
)

// layerDef is one per-layer metric; on lists the workloads it applies
// to (nil: all). On the others the result line carries it as 0, because
// the driver wants every per_layer name on every traced run.
type layerDef struct {
	name, unit, better string
	on                 []string
}

func (d layerDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// spanDefs are the spans the driver records around direct calls,
// reported as median seconds per iteration.
func spanDefs() []layerDef {
	var defs []layerDef
	for _, s := range []struct {
		on    []string
		names []string
	}{
		{onRefactor, []string{"synth.generate_s", "refactor.decompose_s", "refactor.encode_s",
			"refactor.decode_s", "refactor.recompose_s", "errmetric.measure_s", "analytics.outcome_s"}},
		{onNode, []string{"staging.stage_s", "core.new_session_s", "core.launch_s", "sim.run_s",
			"core.summary_s"}},
		{[]string{"node_faulted"}, []string{"fault.arm_s"}},
		{onFleet, []string{"fleet.new_s", "fleet.run_s"}},
	} {
		for _, n := range s.names {
			defs = append(defs, layerDef{n, "s", "lower", s.on})
		}
	}
	return defs
}

func perLayer() []layerDef {
	defs := []layerDef{{"bench.trace_overhead_frac", "ratio", "lower", nil}}
	for _, l := range append(append([]string(nil), layers...), "runtime", "other") {
		defs = append(defs, layerDef{l + ".cpu_share", "ratio", "lower", nil})
	}
	defs = append(defs, spanDefs()...)
	for _, p := range probes {
		defs = append(defs,
			layerDef{p.name + "_ns", "ns", "lower", nil},
			layerDef{p.name + "_allocs", "objects", "lower", nil})
	}
	counts := []layerDef{
		{"core.steps", "count", "higher", onNode},
		{"core.sim_io_s_mean", "s", "lower", onNode},
		{"core.sim_bw_mbps_mean", "MB/s", "higher", onNode},
		{"core.bound_violations", "count", "lower", onNode},
		{"core.degraded_steps", "count", "lower", onNode},
		{"staging.retries", "count", "lower", onNode},
		{"device.hdd_bytes", "bytes", "lower", onNode},
		{"device.ssd_bytes", "bytes", "higher", onNode},
		{"device.hdd_busy_s", "s", "lower", onNode},
		{"dftestim.refits", "count", "lower", onNode},
		{"blkio.weight_writes", "count", "lower", onNode},
		{"cache.hits", "count", "higher", onNode},
		{"cache.misses", "count", "lower", onNode},
		{"cache.hit_mb", "MiB", "higher", onNode},
		{"cache.prefetch_mb", "MiB", "lower", onNode},
		{"resil.attempts", "count", "lower", onNode},
		{"resil.retries", "count", "lower", onNode},
		{"resil.amplification", "ratio", "lower", onNode},
		{"resil.hedges", "count", "lower", onNode},
		{"resil.breaker_opens", "count", "lower", onNode},
		{"tokenctl.borrows", "count", "lower", onNode},
		{"tokenctl.repays", "count", "higher", onNode},
		{"tokenctl.recalls", "count", "lower", onNode},
		{"fault.injected", "count", "higher", onNode},
		{"fault.unpaired", "count", "lower", onNode},
		{"sim.parked_goroutines_per_iter", "count", "lower", onSim},
		{"fleet.session_steps", "count", "higher", onFleet},
		{"fleet.skipped_steps", "count", "lower", onFleet},
		{"fleet.violations", "count", "lower", onFleet},
		{"fleet.migrations", "count", "lower", onFleet},
		{"fleet.kills", "count", "lower", onFleet},
		{"fleet.sim_agg_mbps", "MB/s", "higher", onFleet},
		{"fleet.recovery_frac", "ratio", "higher", onFleet},
		{"objstore.egress_gb", "GiB", "lower", onFleet},
		{"objstore.requests", "count", "lower", onFleet},
		{"objstore.cost_usd", "USD", "lower", onFleet},
		{"refactor.entries", "count", "lower", onRefactor},
		{"refactor.encoded_mb", "MiB", "lower", onRefactor},
		{"refactor.cursor_frac_at_1e-2", "ratio", "lower", onRefactor},
	}
	return append(defs, counts...)
}
