package abplot

import (
	"math"
	"testing"
	"testing/quick"
)

const mb = 1024 * 1024

func TestDefaultMatchesPaper(t *testing.T) {
	p := Default()
	if p.BWLow != 30*mb || p.BWHigh != 120*mb {
		t.Fatalf("default = %+v", p)
	}
}

func TestDegreeEndpoints(t *testing.T) {
	p := Plot{BWLow: 30, BWHigh: 120}
	if p.Degree(0) != 0 || p.Degree(30) != 0 {
		t.Fatal("below/at BWLow must be 0")
	}
	if p.Degree(120) != 1 || p.Degree(1e9) != 1 {
		t.Fatal("at/above BWHigh must be 1")
	}
	if got := p.Degree(75); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("midpoint = %v", got)
	}
}

func TestDegreeLinearInterior(t *testing.T) {
	p := Plot{BWLow: 30, BWHigh: 120}
	// The paper's linear form abplot(BW) = k1·BW + b1 on the interior.
	k1 := 1 / (p.BWHigh - p.BWLow)
	b1 := -p.BWLow * k1
	for bw := 31.0; bw < 120; bw += 7 {
		if got, want := p.Degree(bw), k1*bw+b1; math.Abs(got-want) > 1e-12 {
			t.Fatalf("Degree(%v) = %v, want linear %v", bw, got, want)
		}
	}
}

func TestDegreeBoundedAndMonotoneProperty(t *testing.T) {
	p := Plot{BWLow: 25, BWHigh: 140}
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		da, db := p.Degree(a), p.Degree(b)
		if da < 0 || da > 1 || db < 0 || db > 1 {
			return false
		}
		if a < b && da > db {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
