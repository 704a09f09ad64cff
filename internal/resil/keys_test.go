package resil

import (
	"reflect"
	"testing"
	"unsafe"

	"tango/internal/sim"
)

// TestRegisteredKeysAreStable pins the catalog's key names and their
// order. Keys are part of the operator contract — runbooks and trace
// filters select on them — so renaming or reordering one is a breaking
// change that must be made deliberately, updating this golden list and
// docs/resil.md together.
func TestRegisteredKeysAreStable(t *testing.T) {
	golden := []string{
		"staging.read.base",
		"staging.read.capacity",
		"staging.read.optional",
		"staging.read.hedge",
		"staging.probe.capacity",
		"blkio.weight.apply",
		"coord.weight.apply",
		"prefetch.weight.floor",
		"prefetch.stage",
		"fleet.read.objstore",
		"tokens.weight.apply",
	}
	c := New(sim.NewEngine(), Options{})
	var got []string
	for id := KeyID(0); id < numKeys; id++ {
		got = append(got, c.Key(id).Policy().Name)
	}
	if !reflect.DeepEqual(got, golden) {
		t.Fatalf("catalog key set drifted:\n got  %q\n want %q", got, golden)
	}
	// The exported constants index the rows of the same names (call
	// sites ask for their key by constant).
	consts := []KeyID{
		KeyStagingReadBase, KeyStagingReadCapacity, KeyStagingReadOptional,
		KeyStagingReadHedge, KeyStagingProbe, KeyWeightApply,
		KeyCoordWeightApply, KeyPrefetchWeightFloor, KeyPrefetchStage,
		KeyFleetReadObjstore, KeyTokenWeightApply,
	}
	for i, id := range consts {
		if name := c.Key(id).Policy().Name; name != golden[i] {
			t.Errorf("key constant %d names %q, want %q", i, name, golden[i])
		}
	}
	// The adhoc catalog names its rows after the catalog's; every other
	// row is direct (a nil key).
	adhocGolden := map[KeyID]string{
		KeyStagingReadBase:     "adhoc.staging.read.base",
		KeyStagingReadCapacity: "adhoc.staging.read.capacity",
		KeyStagingReadOptional: "adhoc.staging.read.optional",
		KeyWeightApply:         "adhoc.blkio.weight.apply",
		KeyCoordWeightApply:    "adhoc.coord.weight.apply",
		KeyPrefetchWeightFloor: "adhoc.prefetch.weight.floor",
		KeyTokenWeightApply:    "adhoc.tokens.weight.apply",
	}
	ac := NewAdhoc(sim.NewEngine(), nil)
	for id := KeyID(0); id < numKeys; id++ {
		want, keyed := adhocGolden[id]
		if k := ac.Key(id); !keyed && k != nil {
			t.Errorf("adhoc row %s must be direct, has key %q", golden[id], k.Policy().Name)
		} else if keyed && (k == nil || k.Policy().Name != want) {
			t.Errorf("adhoc row %s: key %v, want %q", golden[id], k, want)
		}
	}
}

// TestCatalogPolicyShape pins the structural invariants the call sites
// rely on, without golden-testing every number.
func TestCatalogPolicyShape(t *testing.T) {
	for id, pol := range catalog {
		if pol.Classify == nil {
			t.Errorf("%s: nil classifier", pol.Name)
		}
		if pol.Factor < 1 {
			t.Errorf("%s: backoff factor %v < 1", pol.Name, pol.Factor)
		}
		if pol.Name == "" {
			t.Errorf("key %d has no name", id)
		}
	}
	// Mandatory read keys: unbounded, no per-attempt timeout (cancelling
	// a stalled-but-progressing flow would discard its progress).
	for _, id := range []KeyID{KeyStagingReadBase, KeyStagingReadCapacity, KeyFleetReadObjstore} {
		pol := catalog[id]
		if pol.MaxAttempts != 0 || pol.TimeoutMinBW != 0 {
			t.Errorf("%s: mandatory key must be unbounded with no timeout: %+v", pol.Name, pol)
		}
		if pol.BreakerThreshold != 0 {
			t.Errorf("%s: mandatory key must not be breaker-denied", pol.Name)
		}
	}
	// Optional/background read keys: bounded and deadlined.
	for _, id := range []KeyID{KeyStagingReadOptional, KeyStagingProbe, KeyPrefetchStage} {
		pol := catalog[id]
		if pol.MaxAttempts == 0 || pol.TimeoutMinBW == 0 {
			t.Errorf("%s: optional key must bound attempts and deadline them: %+v", pol.Name, pol)
		}
	}
	// Weight keys: single attempt (the control tick is the retry loop),
	// breaker-gated, weight classifier.
	for _, id := range []KeyID{KeyWeightApply, KeyCoordWeightApply, KeyPrefetchWeightFloor, KeyTokenWeightApply} {
		pol := catalog[id]
		if pol.MaxAttempts != 1 || pol.BreakerThreshold == 0 {
			t.Errorf("%s: weight key must be single-attempt and breaker-gated: %+v", pol.Name, pol)
		}
	}
	// Only the adhoc catalog charges the request, and only its reads; it
	// has no deadline, budget or breaker, so every failed write is traced.
	for id := range catalog {
		if catalog[id].ChargeRequest {
			t.Errorf("%s charges the request", catalog[id].Name)
		}
		if pol := adhoc[id]; pol.Name != "" {
			read := KeyID(id) <= KeyStagingReadOptional
			if pol.ChargeRequest != read || pol.TimeoutMinBW != 0 || pol.BudgetCap != 0 || pol.BreakerThreshold != 0 || pol.Classify == nil {
				t.Errorf("%s: adhoc row shape %+v", pol.Name, pol)
			}
		}
	}
}

// TestNewControllerAllocs: a controller is one object of at most 2 KiB —
// the keys live in it, each pointing at its catalog row, and the breaker
// map is made with the first breaker.
func TestNewControllerAllocs(t *testing.T) {
	eng := sim.NewEngine()
	if n := testing.AllocsPerRun(100, func() { New(eng, Options{}) }); n > 1 {
		t.Fatalf("New allocates %.0f objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { NewAdhoc(eng, nil) }); n > 1 {
		t.Fatalf("NewAdhoc allocates %.0f objects, want 1", n)
	}
	if size := unsafe.Sizeof(Controller{}); size > 2048 {
		t.Fatalf("Controller is %d B, want at most 2048", size)
	}
	if (*Controller)(nil).Key(KeyWeightApply) != nil {
		t.Fatal("a nil controller's key must be nil")
	}
}
