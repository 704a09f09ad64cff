package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tango/internal/blkio"
	"tango/internal/cache"
	"tango/internal/container"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/staging"
	"tango/internal/tensor"
	"tango/internal/tokenctl"
	"tango/internal/workload"
)

// testField builds a 513x513 analysis field — large enough that transfer
// time (not per-request latency) dominates, so interference effects are
// visible at test scale.
func testField(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	n := 513
	t := tensor.New(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := math.Sin(6*math.Pi*float64(r)/float64(n))*math.Cos(4*math.Pi*float64(c)/float64(n)) +
				0.25*math.Sin(24*math.Pi*float64(c)/float64(n)) + 0.03*rng.NormFloat64()
			t.Set(v, r, c)
		}
	}
	return t
}

var (
	hierOnce sync.Once
	hierVal  *refactor.Hierarchy
)

// testHierarchy is shared across tests (decomposition is deterministic
// and read-only at analysis time).
func testHierarchy(t testing.TB) *refactor.Hierarchy {
	t.Helper()
	hierOnce.Do(func() {
		h, err := refactor.Decompose(testField(1), refactor.Options{
			Levels: 4,
			Bounds: []float64{0.05, 0.01, 0.001},
		})
		if err != nil {
			t.Fatal(err)
		}
		hierVal = h
	})
	if hierVal == nil {
		t.Skip("hierarchy construction failed earlier")
	}
	return hierVal
}

// scenario builds a node with SSD+HDD tiers and nNoise interferers.
func scenario(t *testing.T, nNoise int) (*container.Node, *staging.Store) {
	t.Helper()
	return scaledScenario(t, nNoise, 1)
}

// scaledScenario is scenario with the hierarchy staged at a payload scale
// (staging.StageScaled).
func scaledScenario(t *testing.T, nNoise int, scale float64) (*container.Node, *staging.Store) {
	t.Helper()
	node := container.NewNode("n0")
	ssd := node.MustAddDevice(device.SSD("ssd"))
	hdd := node.MustAddDevice(device.HDD("hdd"))
	_ = ssd
	set := workload.PaperNoiseSet()
	if nNoise > len(set) {
		nNoise = len(set)
	}
	workload.LaunchNoiseSet(node, hdd, set[:nNoise])
	st, err := staging.StageScaled(testHierarchy(t), node.Tiers(), scale)
	if err != nil {
		t.Fatal(err)
	}
	return node, st
}

func runSession(t *testing.T, policy Policy, nNoise, steps int, mut func(*Config)) *Session {
	t.Helper()
	return runScaled(t, 1, policy, nNoise, steps, mut)
}

// runScaled is runSession over a hierarchy staged at a payload scale.
func runScaled(t *testing.T, scale float64, policy Policy, nNoise, steps int, mut func(*Config)) *Session {
	t.Helper()
	node, st := scaledScenario(t, nNoise, scale)
	cfg := Config{Policy: policy, Steps: steps}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewSession("analytics", st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(float64(steps)*period + 1000); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Stats()); got != steps {
		t.Fatalf("completed %d of %d steps", got, steps)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	_, st := scenario(t, 0)
	if _, err := NewSession("a", st, Config{Steps: 0}); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := NewSession("a", st, Config{Steps: 1, Priority: -1}); err == nil {
		t.Fatal("negative priority accepted")
	}
	for _, pri := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewSession("a", st, Config{Steps: 1, Priority: pri}); err == nil {
			t.Fatalf("priority %v accepted", pri)
		}
	}
	// A negative window or refit period used to run silently: RefitEvery
	// -5 refitted every 5 steps and Window -1 fitted 30 samples.
	if _, err := NewSession("a", st, Config{Steps: 1, Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := NewSession("a", st, Config{Steps: 1, RefitEvery: -5}); err == nil {
		t.Fatal("negative refit period accepted")
	}
	if _, err := NewSession("a", st, Config{Steps: 1, ErrorControl: true, Bound: 0.42}); err == nil {
		t.Fatal("unknown bound accepted")
	}
	// The bucket log's index is 32-bit: 2³¹ steps of up to four buckets
	// would wrap it. Refused before the records are allocated.
	if _, err := NewSession("a", st, Config{Steps: 1 << 31}); err == nil || !strings.Contains(err.Error(), "bucket log") {
		t.Fatalf("2^31 steps: err %v, want the bucket log's index refused", err)
	}
	if _, err := NewSession("a", st, Config{Steps: 1, ErrorControl: true, Bound: 0.01}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNoAdaptRetrievesFullAtDefaultWeight(t *testing.T) {
	s := runSession(t, NoAdapt, 3, 5, nil)
	total := s.store.Hierarchy().TotalEntries()
	for i, st := range s.Stats() {
		if st.Cursor != total {
			t.Fatalf("step %d cursor %d, want full %d", i, st.Cursor, total)
		}
		for _, b := range s.Buckets(i) {
			if b.Weight != 0 {
				t.Fatal("no-adaptivity must not adjust weights")
			}
		}
		if st.BaseTime <= 0 {
			t.Fatal("base retrieval time missing")
		}
	}
}

func TestStorageOnlySetsProportionalWeight(t *testing.T) {
	s := runSession(t, StorageOnly, 3, 5, nil)
	total := s.store.Hierarchy().TotalEntries()
	for i, st := range s.Stats() {
		if st.Cursor != total {
			t.Fatal("storage-only must retrieve fully")
		}
		if n := len(s.Buckets(i)); n != 1 {
			t.Fatalf("storage-only should read one bucket per step, got %d", n)
		}
		w := s.Buckets(i)[0].Weight
		if w < blkio.MinWeight || w > blkio.MaxWeight {
			t.Fatalf("weight %d out of range", w)
		}
		if w <= blkio.DefaultWeight {
			t.Fatalf("full-size retrieval should weigh above default, got %d", w)
		}
	}
}

func TestAppAdaptivityReducesRetrievalUnderInterference(t *testing.T) {
	steps := 45
	s := runSession(t, CrossLayer, 6, steps, func(c *Config) {
		c.RefitEvery = 10
		c.Window = 10
	})
	total := s.store.Hierarchy().TotalEntries()
	// Warm-up steps retrieve fully.
	for i, st := range s.Stats()[:10] {
		if st.Cursor != total {
			t.Fatalf("warm-up step %d cursor %d", i, st.Cursor)
		}
		if st.Predicted != 0 {
			t.Fatal("no prediction should be used before the first fit")
		}
	}
	// After fitting, under 6 interferers the HDD bandwidth share sits
	// below BWHigh, so at least some steps must back off.
	reduced := 0
	for i, st := range s.Stats()[10:] {
		if st.Predicted <= 0 {
			t.Fatalf("step %d missing prediction", 10+i)
		}
		if st.Cursor < total {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("no adaptive backoff despite heavy interference")
	}
}

func TestErrorControlFloorsCursor(t *testing.T) {
	steps := 45
	s := runSession(t, CrossLayer, 6, steps, func(c *Config) {
		c.RefitEvery = 10
		c.Window = 10
		c.ErrorControl = true
		c.Bound = 0.01
	})
	floor, err := s.store.Hierarchy().CursorForBound(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range s.Stats() {
		if st.Cursor < floor {
			t.Fatalf("step %d cursor %d below error-control floor %d", i, st.Cursor, floor)
		}
	}
}

func TestCrossLayerWeightEventsPerBucket(t *testing.T) {
	s := runSession(t, CrossLayer, 3, 5, func(c *Config) {
		c.ErrorControl = true
		c.Bound = 0.001
	})
	tightest, err := s.store.Hierarchy().CursorForBound(0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Stats() {
		if len(s.Buckets(i)) == 0 {
			t.Fatal("cross-layer step recorded no buckets")
		}
		for _, b := range s.Buckets(i) {
			if b.Weight < blkio.MinWeight || b.Weight > blkio.MaxWeight {
				t.Fatalf("weight %d out of range", b.Weight)
			}
			if b.To-b.From <= 0 {
				t.Fatalf("bucket cardinality %d", b.To-b.From)
			}
			if b.Elapsed < 0 {
				t.Fatal("negative bucket elapsed")
			}
		}
		// Time-to-bound must be measurable for the tightest bound and
		// exceed the base retrieval time.
		if lt := s.TimeToBound(i, tightest); math.IsNaN(lt) || lt <= 0 {
			t.Fatalf("TimeToBound = %v", lt)
		}
	}
	// Weight must revert to default between steps.
	if got := s.Container().Cgroup().Weight(); got != blkio.DefaultWeight {
		t.Fatalf("weight left at %d after step", got)
	}
}

func TestBucketsPartitionCursorRange(t *testing.T) {
	_, st := scenario(t, 0)
	s, err := NewSession("a", st, Config{Policy: CrossLayer, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := st.Hierarchy()
	for _, cursor := range []int{0, 1, h.Rungs()[0].Cursor, h.Rungs()[1].Cursor + 5, h.TotalEntries()} {
		_, bks := s.buckets(cursor, true)
		prev := 0
		for _, b := range bks {
			if int(b.From) != prev {
				t.Fatalf("cursor %d: bucket gap at %d (got from=%d)", cursor, prev, b.From)
			}
			if b.To <= b.From {
				t.Fatalf("cursor %d: empty bucket", cursor)
			}
			if math.IsNaN(b.Bound) {
				t.Fatalf("cursor %d: NaN bound", cursor)
			}
			prev = int(b.To)
		}
		if prev != cursor {
			t.Fatalf("cursor %d: buckets cover up to %d", cursor, prev)
		}
	}
}

// crossScale stages the cross-layer comparisons' ~2 MB test hierarchy at
// ~540 MB, the CI suite's dataset size. Unscaled, the fixed 4 MiB
// default-share probe is twice a step's whole retrieval, and cross-layer
// pays it every step (0.0835 s mean I/O against app-only's 0.0713 s).
const crossScale = 256

func TestCrossLayerBeatsNoAdaptivity(t *testing.T) {
	steps := 60
	skip := 15
	mut := func(c *Config) { c.RefitEvery = 10; c.Window = 10 }
	base := runScaled(t, crossScale, NoAdapt, 6, steps, mut).Summary(skip)
	cross := runScaled(t, crossScale, CrossLayer, 6, steps, mut).Summary(skip)
	if !(cross.MeanIO < base.MeanIO) {
		t.Fatalf("cross-layer %.4fs should beat no-adaptivity %.4fs", cross.MeanIO, base.MeanIO)
	}
}

func TestCrossLayerBeatsSingleLayer(t *testing.T) {
	steps := 60
	skip := 15
	mut := func(c *Config) { c.RefitEvery = 10; c.Window = 10 }
	app := runScaled(t, crossScale, AppOnly, 6, steps, mut).Summary(skip)
	storage := runScaled(t, crossScale, StorageOnly, 6, steps, mut).Summary(skip)
	cross := runScaled(t, crossScale, CrossLayer, 6, steps, mut).Summary(skip)
	if !(cross.MeanIO <= app.MeanIO*1.05) {
		t.Fatalf("cross-layer %.4fs should not lose to app-only %.4fs", cross.MeanIO, app.MeanIO)
	}
	if !(cross.MeanIO < storage.MeanIO) {
		t.Fatalf("cross-layer %.4fs should beat storage-only %.4fs", cross.MeanIO, storage.MeanIO)
	}
}

func TestHigherPriorityNoSlower(t *testing.T) {
	steps := 45
	mut := func(p float64) func(*Config) {
		return func(c *Config) {
			c.RefitEvery = 10
			c.Window = 10
			c.ErrorControl = true
			c.Bound = 0.01
			c.Priority = p
		}
	}
	low := runSession(t, CrossLayer, 6, steps, mut(1)).Summary(15)
	high := runSession(t, CrossLayer, 6, steps, mut(10)).Summary(15)
	if !(high.MeanIO <= low.MeanIO*1.05) {
		t.Fatalf("high priority %.4fs should not be slower than low %.4fs", high.MeanIO, low.MeanIO)
	}
}

func TestSummaryStatistics(t *testing.T) {
	stats := []StepStats{
		{IOTime: 1, Bytes: 10},
		{IOTime: 3, Bytes: 30},
		{IOTime: 2, Bytes: 20},
	}
	s := Summarize(stats, 0)
	if s.Steps != 3 || s.MeanIO != 2 || s.MinIO != 1 || s.MaxIO != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdIO-1) > 1e-12 {
		t.Fatalf("std = %v", s.StdIO)
	}
	if got := Summarize(stats, 2).Steps; got != 1 {
		t.Fatalf("skip: %d", got)
	}
	if got := Summarize(stats, 10); got.Steps != 0 || got.MeanIO != 0 {
		t.Fatalf("over-skip: %+v", got)
	}
	if got := Summarize(nil, -1); got.Steps != 0 {
		t.Fatalf("nil stats: %+v", got)
	}
}

func TestEstimatorFedEveryStep(t *testing.T) {
	s := runSession(t, CrossLayer, 3, 12, func(c *Config) { c.RefitEvery = 5; c.Window = 5 })
	if got := s.Estimator().Samples(); got != 12 {
		t.Fatalf("estimator samples = %d, want 12", got)
	}
	for i, st := range s.Stats() {
		if st.SlowBW <= 0 {
			t.Fatalf("step %d has no bandwidth sample", i)
		}
	}
}

func TestDeterministicSessions(t *testing.T) {
	run := func() []float64 {
		s := runSession(t, CrossLayer, 4, 20, func(c *Config) { c.RefitEvery = 5; c.Window = 5 })
		out := make([]float64, 0, 20)
		for _, st := range s.Stats() {
			out = append(out, st.IOTime)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if len(AllPolicies()) != 4 {
		t.Fatal("policy list")
	}
	names := map[string]bool{}
	for _, p := range AllPolicies() {
		names[p.String()] = true
	}
	if len(names) != 4 {
		t.Fatal("policy names collide")
	}
}

// TestOffLadderBoundRejected pins the one bound → cursor path: a bound
// between two ladder rungs is refused by NewSession and by SetBound, and
// an exact rung resolves to that rung's cursor.
func TestOffLadderBoundRejected(t *testing.T) {
	h, err := refactor.Decompose(testField(1), refactor.Options{
		Levels: 4,
		Bounds: []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5},
	})
	if err != nil {
		t.Fatal(err)
	}
	node := container.NewNode("n-offladder")
	node.MustAddDevice(device.SSD("ssd"))
	node.MustAddDevice(device.HDD("hdd"))
	st, err := staging.Stage(h, node.Tiers())
	if err != nil {
		t.Fatal(err)
	}
	// 0.005 sits between the 1e-2 and 1e-3 rungs.
	const offLadder = 0.005
	if _, err := NewSession("a", st, Config{Steps: 1, ErrorControl: true, Bound: offLadder}); err == nil {
		t.Fatal("NewSession accepted an off-ladder bound")
	}
	s, err := NewSession("a", st, Config{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBound(offLadder); err == nil {
		t.Fatal("SetBound accepted an off-ladder bound")
	}
	if s.Config.ErrorControl || s.rung != 0 {
		t.Fatal("rejected SetBound changed the session")
	}
	for _, rung := range []float64{1e-2, 1e-3} {
		want, err := h.CursorForBound(rung)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetBound(rung); err != nil {
			t.Fatalf("SetBound(%g): %v", rung, err)
		}
		if got := s.rung; got != want {
			t.Fatalf("bound %g: mandatory cursor %d, want rung cursor %d", rung, got, want)
		}
	}
}

// TestStepSteadyStateAllocs pins the retrieval step's allocation budget:
// past warm-up, an untraced cross-layer step (interferers, probe and
// refits included) allocates nothing but the occasional bucket-log chunk,
// with sequential or parallel tier reads. (0.06 objects per step
// measured; ~28 before TierStats became a value and the segment and
// bucket slices scratch, and 9.84 on parallel reads before their tier
// reads became the session's scratch.)
func TestStepSteadyStateAllocs(t *testing.T) {
	const warm, measured = 100, 200
	for _, parallel := range []bool{false, true} {
		node, st := scenario(t, 3)
		s, err := NewSession("analytics", st, Config{Policy: CrossLayer, ErrorControl: true, Bound: 0.01, Steps: warm + measured,
			ParallelTierReads: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Launch(node); err != nil {
			t.Fatal(err)
		}
		mallocsAfter := func(steps int) (uint64, int) {
			if err := node.Engine().Run(float64(steps) * period); err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.Mallocs, len(s.Stats())
		}
		m0, n0 := mallocsAfter(warm)
		m1, n1 := mallocsAfter(warm + measured)
		if n1-n0 < measured-1 {
			t.Fatalf("parallel %t: measured %d steps, want about %d", parallel, n1-n0, measured)
		}
		if perStep := float64(m1-m0) / float64(n1-n0); perStep > 1 {
			t.Fatalf("parallel %t: %.2f objects per steady-state step (%d over %d steps), want <= 1", parallel, perStep, m1-m0, n1-n0)
		}
	}
}

// TestFailedLaunchLeavesNoSession: a session whose Launch fails — its name
// already attached to the shared weight controller by a session on
// another node — runs no step and leaves the first session's entry alone,
// so the first runs all its steps. Before, the failed session's step
// process was spawned ahead of the attach: it ran on the first session's
// entry, detached it at its end, and the first then panicked.
func TestFailedLaunchLeavesNoSession(t *testing.T) {
	for _, mode := range []string{"central", "tokens"} {
		var nodes [2]*container.Node
		var sessions [2]*Session
		alloc := coordinator.New()
		var tokens *tokenctl.Controller
		for i := range nodes {
			node, st := scenario(t, 1)
			nodes[i] = node
			if i == 0 && mode == "tokens" {
				tokens = tokenctl.New(node.Engine().Now, tokenctl.Options{})
			}
			cfg := Config{Policy: CrossLayer, Steps: 5}
			if mode == "central" {
				cfg.Allocator = alloc
			} else {
				cfg.Tokens = tokens
			}
			s, err := NewSession("a", st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
			if err := s.Launch(node); (err == nil) != (i == 0) {
				t.Fatalf("%s: launch %d: %v", mode, i, err)
			}
		}
		for i, node := range nodes {
			if err := node.Engine().Run(5*period + 600); err != nil {
				t.Fatalf("%s: node %d: %v", mode, i, err)
			}
		}
		if got := len(sessions[0].Stats()); got != 5 {
			t.Fatalf("%s: the launched session ran %d of 5 steps", mode, got)
		}
		if got := len(sessions[1].Stats()); got != 0 || sessions[1].finished {
			t.Fatalf("%s: the session whose launch failed ran %d steps (finished %t)", mode, got, sessions[1].finished)
		}
	}
}

// TestFinishedNodeIsGarbage: once Run has returned, a node with all six
// Table IV interferers and a finished session holds no process and no
// coroutine, so dropping it frees it without Engine.Close. An interferer
// that parked a coroutine kept its whole node reachable. A second,
// identical run adds no goroutine: the counts on either side are read
// once they hold still, and only a rise fails, so a goroutine of an
// earlier test that exits meanwhile does not.
func TestFinishedNodeIsGarbage(t *testing.T) {
	settled := func() int {
		n := runtime.NumGoroutine()
		for try := 0; try < 100; try++ {
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	freed := make(chan struct{}, 1)
	run := func(watch bool) int {
		node, st := scenario(t, 6)
		s, err := NewSession("analytics", st, Config{Policy: CrossLayer, Steps: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Launch(node); err != nil {
			t.Fatal(err)
		}
		if err := node.Engine().Run(5*period + 600); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Stats()); got != 5 {
			t.Fatalf("completed %d of 5 steps", got)
		}
		if watch {
			runtime.SetFinalizer(node, func(*container.Node) { freed <- struct{}{} })
		}
		return node.Engine().LiveProcs()
	}
	run(false)
	before := settled()
	live := run(true)
	if live != 0 {
		t.Fatalf("%d processes still live after Run", live)
	}
	if n := settled(); n > before {
		t.Fatalf("%d goroutines before the run, %d after", before, n)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the finished node was not collected")
	}
}

// TestPrefetchInputsBoxFree: the session hands itself to its prefetcher as
// a struct holding only the session pointer, which boxes into
// cache.Inputs without allocating.
func TestPrefetchInputsBoxFree(t *testing.T) {
	s := &Session{}
	var in cache.Inputs
	if n := testing.AllocsPerRun(100, func() { in = prefetchInputs{s} }); n != 0 || in == nil {
		t.Fatalf("boxing the prefetch inputs allocates %v objects", n)
	}
}
