package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quickRun runs one workload at -quick scale in this process and
// returns the metric lines by name and the result line.
func quickRun(t *testing.T, o options) (map[string]float64, map[string]string, result) {
	t.Helper()
	o.seed, o.seconds, o.sets, o.quick = 42, 15, 1, true
	var buf bytes.Buffer
	if err := runOne(&buf, o); err != nil {
		t.Fatalf("%s traced=%v: %v\n%s", o.workload, o.traced, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	metrics, infos := map[string]float64{}, map[string]string{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		switch f[0] {
		case "metric":
			if len(f) != 5 || f[1] != o.workload {
				t.Fatalf("malformed metric line %q", line)
			}
			if !nameRE.MatchString(f[2]) {
				t.Errorf("metric name %q", f[2])
			}
			if _, dup := metrics[f[2]]; dup {
				t.Errorf("%s emitted twice", f[2])
			}
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			metrics[f[2]] = v
		case "info":
			infos[f[2]] = strings.Join(f[3:], " ")
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
	return metrics, infos, res
}

func TestQuickRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		metrics, _, res := quickRun(t, options{workload: w.name})
		for _, m := range endToEnd {
			if v, ok := metrics[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, emitted %v", w.name, m.name, v, ok)
			}
			if res.Metrics[m.name].Unit != m.unit {
				t.Errorf("%s: %s has unit %q", w.name, m.name, res.Metrics[m.name].Unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line carries %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		if metrics["failed_frac"] != 0 {
			t.Errorf("%s: failed_frac %v", w.name, metrics["failed_frac"])
		}
	}
}

func TestQuickTracedRunEmitsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads() {
		spanFile := filepath.Join(t.TempDir(), "spans.json")
		metrics, infos, res := quickRun(t, options{workload: w.name, traced: true, traceOut: spanFile})
		applicable, shareSum := 0, 0.0
		for _, d := range perLayer() {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: result line lacks %s", w.name, d.name)
			}
			v, emitted := metrics[d.name]
			if emitted != d.appliesTo(w.name) {
				t.Errorf("%s: %s emitted=%v, applies=%v", w.name, d.name, emitted, d.appliesTo(w.name))
			}
			if emitted {
				applicable++
			}
			if strings.HasSuffix(d.name, ".cpu_share") {
				shareSum += v
			}
		}
		if len(metrics) != applicable || len(res.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d metric lines for %d applicable, %d in the result line for %d defined",
				w.name, len(metrics), applicable, len(res.Metrics), len(perLayer()))
		}
		// A quick iteration can end before the profiler's first tick.
		if infos["cpu_profile_samples"] != "0" && math.Abs(shareSum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v", w.name, shareSum)
		}
		if metrics["fault.unpaired"] != 0 {
			t.Errorf("%s: %v unpaired faults", w.name, metrics["fault.unpaired"])
		}
		checkSpans(t, w.name, spanFile)
	}
}

// checkSpans verifies the span file is a tree: run → iteration → …,
// every span inside its parent's interval.
func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) < 3 || spans[0].Name != "run" || spans[0].Parent != -1 {
		t.Fatalf("%s: span file starts %+v", workload, spans[:min(len(spans), 3)])
	}
	for i, s := range spans[1:] {
		i++
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("%s: span %d (%s) has parent %d", workload, i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.End < s.Start {
			t.Errorf("%s: span %d (%s) [%g,%g] outside parent %s [%g,%g]",
				workload, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if (s.Name == "iteration") != (p.Name == "run") {
			t.Errorf("%s: span %s under %s", workload, s.Name, p.Name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the program's metric catalogue
// and the file the driver reads in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v vs %s", i, bj.Workloads[i], w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound == nil || *j.Bound != m.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, j, m)
		}
	}
	defs := perLayer()
	if len(bj.PerLayer) != len(defs) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(defs))
	}
	for i, d := range defs {
		j := bj.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != nil {
			t.Errorf("per_layer %d: %+v vs %+v", i, j, d)
		}
	}
}

// spin burns CPU in a function of this package, which the decoder must
// charge to "other".
func spin(d time.Duration) float64 {
	x, end := 1.0, time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestPprofDecoder(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	sink += spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample %+v", s)
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample of %d passes through spin", len(samples))
	}
	shares, n, err := cpuShares(prof.Bytes())
	if err != nil || n != len(samples) {
		t.Fatalf("cpuShares: n=%d err=%v", n, err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("spin ran in this package, but other.cpu_share is %v: %v", shares["other"], shares)
	}
	if len(shares) != len(layers)+2 {
		t.Errorf("%d shares for %d layers", len(shares), len(layers))
	}

	if _, err := decodeProfile(prof.Bytes()[:prof.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestLayerOfSymbol(t *testing.T) {
	for _, c := range []struct{ symbol, layer string }{
		{"tango/internal/sim.(*Engine).Run", "sim"},
		{"tango/internal/device.(*Device).reshape", "device"},
		{"tango/internal/runpool.Submit[go.shape.func() error]", "runpool"},
		{"tango/internal/runpool.(*Task[go.shape.struct { tango/internal/x.Y }]).Wait", "runpool"},
		{"tango/internal/harness.Fleet", "other"},
		{"tango.NewFleet", "other"},
		{"main.(*fleetWL).iterate", "other"},
		{"runtime.mallocgc", "runtime"},
		{"runtime/internal/atomic.Xadd", "runtime"},
		{"internal/runtime/atomic.(*Int32).Add", "runtime"},
		{"sync.(*Mutex).Lock", "runtime"},
		{"math.Exp", ""},
		{"sort.Float64s", ""},
		{"compress/flate.(*compressor).deflate", ""},
	} {
		if got := layerOfPackage(funcPackage(c.symbol)); got != c.layer {
			t.Errorf("%s: layer %q, want %q", c.symbol, got, c.layer)
		}
	}
}
