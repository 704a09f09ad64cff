package harness

import "testing"

// TestResilControlPlaneRecovers pins the acceptance bar for the
// resilience control plane: under the standard chaos plan both resil
// arms salvage at least the ad-hoc (PR 2 recovery paths) throughput;
// the prescribed bound is never violated; retry amplification stays
// under 2× even on the mass plan that also faults the fast tier; the
// hedged arm actually races; and no injected fault is left without a
// recorded recovery action.
func TestResilControlPlaneRecovers(t *testing.T) {
	r := run("resil", smallCfg())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 arms x 2 plans", len(r.Rows))
	}
	const (
		colBW       = 3
		colRetries  = 4
		colAmp      = 5
		colViol     = 7
		colHedges   = 9
		colUnpaired = 10
	)
	// Row order: arms (ad-hoc, policy-keyed, hedged) x plans (chaos, mass).
	adhocChaosBW := cell(t, r, 0, colBW)
	if bw := cell(t, r, 2, colBW); bw < adhocChaosBW {
		t.Fatalf("policy-keyed chaos BW %v below ad-hoc %v", bw, adhocChaosBW)
	}
	if bw := cell(t, r, 4, colBW); bw < adhocChaosBW {
		t.Fatalf("hedged chaos BW %v below ad-hoc %v", bw, adhocChaosBW)
	}
	for _, i := range []int{2, 3, 4, 5} { // resil arms, both plans
		if viol := cell(t, r, i, colViol); viol != 0 {
			t.Fatalf("row %d (%s/%s): %v prescribed-bound violations",
				i, r.Rows[i][0], r.Rows[i][1], viol)
		}
		if amp := cell(t, r, i, colAmp); amp > 2 {
			t.Fatalf("row %d (%s/%s): retry amplification %v exceeds 2x",
				i, r.Rows[i][0], r.Rows[i][1], amp)
		}
	}
	// The mass plan must actually contend the retry machinery.
	if retries := cell(t, r, 3, colRetries); retries == 0 {
		t.Fatal("mass plan exercised no policy-keyed retries")
	}
	// The hedged arm must launch races under fault pressure (the mass
	// plan faults the fast tier, so the breaker path also triggers).
	if h := cell(t, r, 5, colHedges); h == 0 {
		t.Fatal("hedged arm launched no hedge races under the mass plan")
	}
	for i := range r.Rows {
		if up := cell(t, r, i, colUnpaired); up != 0 {
			t.Fatalf("row %d (%s/%s): %v faults without a recovery event",
				i, r.Rows[i][0], r.Rows[i][1], up)
		}
	}
}

// TestMassFaultPlanDeterministic pins that the mass plan is a pure
// function of the config seed (the determinism suite replays it).
func TestMassFaultPlanDeterministic(t *testing.T) {
	a := MassFaultPlan(smallCfg()).String()
	b := MassFaultPlan(smallCfg()).String()
	if a != b {
		t.Fatalf("mass plan not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == ChaosPlan(smallCfg()).String() {
		t.Fatal("mass plan should differ from the chaos plan")
	}
}
