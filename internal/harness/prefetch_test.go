package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestLookupErrSuggests(t *testing.T) {
	if e, err := Lookup("prefetch"); err != nil || e.ID != "prefetch" {
		t.Fatalf("Lookup(prefetch) = %v, %v", e.ID, err)
	}
	_, err := Lookup("prefetchh")
	if err == nil || !strings.Contains(err.Error(), `did you mean "prefetch"`) {
		t.Fatalf("no typo suggestion: %v", err)
	}
	_, err = Lookup("zzzzzzzz")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("far-off id should not get a suggestion: %v", err)
	}
	if !strings.Contains(err.Error(), "-list") {
		t.Fatalf("error should point at -list: %v", err)
	}
}

func TestPrefetchBeatsCrossLayer(t *testing.T) {
	r := run("prefetch", smallCfg())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 apps x 2 policies", len(r.Rows))
	}
	parse := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	for i := 0; i < len(r.Rows); i += 2 {
		base, pf := r.Rows[i], r.Rows[i+1]
		if base[0] != pf[0] {
			t.Fatalf("row pairing broken: %v vs %v", base, pf)
		}
		if base[1] != "cross-layer" || pf[1] != "cross-layer+prefetch" {
			t.Fatalf("policy order: %v / %v", base[1], pf[1])
		}
		if baseIO, pfIO := parse(base, 2), parse(pf, 2); pfIO >= baseIO {
			t.Fatalf("%s: prefetch mean I/O %.3f not below cross-layer %.3f", base[0], pfIO, baseIO)
		}
		if base[7] != "0" || pf[7] != "0" {
			t.Fatalf("%s: bound violations %s/%s", base[0], base[7], pf[7])
		}
		if hit := parse(pf, 4); hit <= 0 {
			t.Fatalf("%s: cache hit ratio %.1f%%", pf[0], hit)
		}
		if parse(pf, 6) <= 0 {
			t.Fatalf("%s: nothing staged", pf[0])
		}
	}
	// Every app gets a foreground-bandwidth note.
	bwNotes := 0
	for _, n := range r.Notes {
		if strings.Contains(n, "capacity-tier BW") {
			bwNotes++
		}
	}
	if bwNotes != 3 {
		t.Fatalf("fg BW notes = %d, want 3", bwNotes)
	}
}
