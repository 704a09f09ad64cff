package synth

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tango/internal/par"
	"tango/internal/tensor"
)

// The generators as they stood before their per-point pass went onto
// par.For — one serial raster loop drawing each point's noise inline —
// kept verbatim as the oracle for the parallel versions.

func xgcReference(o XGCOptions) (*tensor.Tensor, []Blob) {
	rng := rand.New(rand.NewSource(o.Seed))
	n := o.N
	t := tensor.New(n, n)
	data := t.Data()

	// Background: band-limited turbulence from a few random Fourier
	// modes plus white noise, unit-ish sigma.
	type mode struct{ kr, kc, phase, amp float64 }
	modes := make([]mode, 12)
	for i := range modes {
		modes[i] = mode{
			kr:    (rng.Float64() - 0.5) * 24 * math.Pi / float64(n),
			kc:    (rng.Float64() - 0.5) * 24 * math.Pi / float64(n),
			phase: rng.Float64() * 2 * math.Pi,
			amp:   0.2 + 0.3*rng.Float64(),
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := 0.3 * rng.NormFloat64()
			for _, m := range modes {
				v += m.amp * math.Sin(m.kr*float64(r)+m.kc*float64(c)+m.phase)
			}
			data[r*n+c] = v
		}
	}

	// Blobs: Gaussian bumps with centers kept away from the boundary and
	// from each other.
	blobs := make([]Blob, 0, o.Blobs)
	const maxTries = 1000
	for len(blobs) < o.Blobs {
		tries := 0
		var b Blob
		for {
			tries++
			if tries > maxTries {
				break
			}
			rad := o.MinRadius + rng.Float64()*(o.MaxRadius-o.MinRadius)
			margin := 3 * rad
			b = Blob{
				Row:       margin + rng.Float64()*(float64(n)-2*margin),
				Col:       margin + rng.Float64()*(float64(n)-2*margin),
				Radius:    rad,
				Amplitude: o.MinAmp + rng.Float64()*(o.MaxAmp-o.MinAmp),
			}
			ok := true
			for _, e := range blobs {
				dr, dc := b.Row-e.Row, b.Col-e.Col
				if math.Hypot(dr, dc) < 4*(b.Radius+e.Radius) {
					ok = false
					break
				}
			}
			if ok {
				break
			}
		}
		if tries > maxTries {
			break
		}
		blobs = append(blobs, b)
		// Paint the blob onto the grid.
		r0, r1 := int(b.Row-4*b.Radius), int(b.Row+4*b.Radius)
		c0, c1 := int(b.Col-4*b.Radius), int(b.Col+4*b.Radius)
		for r := max(0, r0); r <= min(n-1, r1); r++ {
			for c := max(0, c0); c <= min(n-1, c1); c++ {
				dr, dc := float64(r)-b.Row, float64(c)-b.Col
				data[r*n+c] += b.Amplitude * math.Exp(-(dr*dr+dc*dc)/(2*b.Radius*b.Radius))
			}
		}
	}
	return t, blobs
}

func genASiSReference(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	data := t.Data()
	cr, cc := float64(n)/2, float64(n)/2
	shockR := float64(n) * 0.31
	// Angular perturbation of the shock radius (the SASI instability the
	// GenASiS paper studies is a low-mode angular oscillation).
	a1, a2 := 0.08+0.04*rng.Float64(), 0.05+0.03*rng.Float64()
	p1, p2 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	width := float64(n) * 0.012
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			dr, dc := float64(r)-cr, float64(c)-cc
			rad := math.Hypot(dr, dc)
			theta := math.Atan2(dr, dc)
			front := shockR * (1 + a1*math.Sin(2*theta+p1) + a2*math.Sin(3*theta+p2))
			// Behind the shock: accretion velocity rising toward the
			// center (capped at small radii); outside: slow wind.
			inner := 1.0 / math.Sqrt(math.Max(rad/float64(n)*8, 0.05))
			outer := 0.15
			s := 1 / (1 + math.Exp((rad-front)/width)) // 1 inside, 0 outside
			v := s*inner + (1-s)*outer + 0.01*rng.NormFloat64()
			data[r*n+c] = v
		}
	}
	return t
}

func cfdReference(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	data := t.Data()
	// Nose at (n/2, n/5); chord along +col.
	nr, nc := float64(n)/2, float64(n)/5
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			dr, dc := float64(r)-nr, float64(c)-nc
			d := math.Hypot(dr, dc)
			// Stagnation pressure bump.
			p := 2.5 * math.Exp(-d/(float64(n)*0.06))
			// Suction (low pressure) lobes above/below the chord
			// downstream of the nose.
			if dc > 0 {
				p -= 0.9 * math.Exp(-math.Abs(math.Abs(dr)-float64(n)*0.08)/(float64(n)*0.05)) *
					math.Exp(-dc/(float64(n)*0.5))
			}
			// Free stream + measurement noise.
			p += 1.0 + 0.02*rng.NormFloat64()
			data[r*n+c] = p
		}
	}
	return t
}

// TestGeneratorsMatchSerialReference compares each generator with its
// serial reference bit for bit, at one and two workers, on grids below
// and above par.Threshold (the latter split into several chunks). XGC's
// blobs come from the same stream after the background, so they also
// check that the background consumed exactly the serial draws.
func TestGeneratorsMatchSerialReference(t *testing.T) {
	if 257*257 <= par.Threshold {
		t.Fatal("257² no longer spans several chunks")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{33, 128, 257} {
			for _, seed := range []int64{1, 42} {
				got, gotBlobs := XGC(DefaultXGC(n, seed))
				want, wantBlobs := xgcReference(DefaultXGC(n, seed))
				sameBits(t, "XGC", procs, n, got, want)
				if len(gotBlobs) != len(wantBlobs) {
					t.Fatalf("XGC procs=%d n=%d: %d blobs, want %d", procs, n, len(gotBlobs), len(wantBlobs))
				}
				for i := range wantBlobs {
					if gotBlobs[i] != wantBlobs[i] {
						t.Fatalf("XGC procs=%d n=%d blob %d: %+v, want %+v", procs, n, i, gotBlobs[i], wantBlobs[i])
					}
				}
				sameBits(t, "GenASiS", procs, n, GenASiS(n, seed), genASiSReference(n, seed))
				sameBits(t, "CFD", procs, n, CFD(n, seed), cfdReference(n, seed))
			}
		}
	}
}

func sameBits(t *testing.T, name string, procs, n int, got, want *tensor.Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s procs=%d n=%d point %d: %v (%#x), serial %v (%#x)", name, procs, n, i,
				g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}
