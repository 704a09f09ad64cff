// Package synth generates the synthetic analysis datasets substituting
// for the paper's production data (XGC, GenASiS, CFD — §IV-A), which are
// not publicly redistributable. Each generator produces a seeded,
// deterministic 2D field whose statistical structure exercises the same
// analysis code paths as the original data:
//
//   - XGC: electrostatic potential (dpot) with coherent high-potential
//     blobs over broadband background turbulence — blob detection.
//   - GenASiS: velocity magnitude of a core-collapse shock — 2D rendering
//     judged by SSIM and Dice.
//   - CFD: pressure near the leading edge of a plane — high-pressure area
//     and total force.
package synth

import (
	"math"
	"math/rand"

	"tango/internal/par"
	"tango/internal/tensor"
)

// Blob describes one injected XGC blob (ground truth for tests).
type Blob struct {
	Row, Col  float64
	Radius    float64
	Amplitude float64
}

// XGCOptions configures the XGC-like field generator.
type XGCOptions struct {
	N         int // grid side
	Blobs     int
	MinRadius float64 // in cells
	MaxRadius float64
	MinAmp    float64 // in units of the background sigma
	MaxAmp    float64
	Seed      int64
}

// DefaultXGC gives a field with a dozen well-separated blobs on a 2D grid.
func DefaultXGC(n int, seed int64) XGCOptions {
	return XGCOptions{
		N: n, Blobs: 12,
		MinRadius: float64(n) / 64, MaxRadius: float64(n) / 24,
		MinAmp: 6, MaxAmp: 12,
		Seed: seed,
	}
}

// XGC generates the potential field and returns the injected blobs.
func XGC(o XGCOptions) (*tensor.Tensor, []Blob) {
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
			kr:    (float64(rng.Float64()) - 0.5) * 24 * math.Pi / float64(n),
			kc:    (float64(rng.Float64()) - 0.5) * 24 * math.Pi / float64(n),
			phase: float64(rng.Float64()) * 2 * math.Pi,
			amp:   0.2 + float64(0.3*rng.Float64()),
		}
	}
	drawNormals(data, rng)
	par.For(n*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, c := i/n, i%n
			v := 0.3 * data[i]
			for _, m := range modes {
				v += float64(m.amp * math.Sin(float64(m.kr*float64(r))+float64(m.kc*float64(c))+m.phase))
			}
			data[i] = v
		}
	})

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
			rad := o.MinRadius + float64(rng.Float64()*(o.MaxRadius-o.MinRadius))
			margin := float64(3 * rad)
			b = Blob{
				Row:       margin + float64(rng.Float64()*(float64(n)-float64(2*margin))),
				Col:       margin + float64(rng.Float64()*(float64(n)-float64(2*margin))),
				Radius:    rad,
				Amplitude: o.MinAmp + float64(rng.Float64()*(o.MaxAmp-o.MinAmp)),
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
		paintBlob(t, b)
	}
	return t, blobs
}

// GenASiS generates a core-collapse velocity-magnitude field: a
// quasi-circular shock front with angular perturbations; velocity is high
// behind the shock (infall region) and low outside, with a sharp
// transition at the front.
func GenASiS(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	data := t.Data()
	cr, cc := float64(n)/2, float64(n)/2
	shockR := float64(n) * 0.31
	// Angular perturbation of the shock radius (the SASI instability the
	// GenASiS paper studies is a low-mode angular oscillation).
	a1, a2 := 0.08+float64(0.04*rng.Float64()), 0.05+float64(0.03*rng.Float64())
	p1, p2 := float64(rng.Float64())*2*math.Pi, float64(rng.Float64())*2*math.Pi
	width := float64(n) * 0.012
	drawNormals(data, rng)
	par.For(n*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, c := i/n, i%n
			dr, dc := float64(r)-cr, float64(c)-cc
			rad := math.Hypot(dr, dc)
			theta := math.Atan2(dr, dc)
			front := float64(shockR * (1 + float64(a1*math.Sin(float64(2*theta)+p1)) + float64(a2*math.Sin(float64(3*theta)+p2))))
			// Behind the shock: accretion velocity rising toward the
			// center (capped at small radii); outside: slow wind.
			inner := 1.0 / math.Sqrt(math.Max(rad/float64(n)*8, 0.05))
			outer := 0.15
			s := 1 / (1 + math.Exp((rad-front)/width)) // 1 inside, 0 outside
			v := float64(s*inner) + float64((1-s)*outer) + float64(0.01*data[i])
			data[i] = v
		}
	})
	return t
}

// CFD generates a pressure field near the leading edge of a plane: a
// stagnation region of high pressure around the nose, decaying along the
// chord and across the boundary layer, over a free-stream baseline.
func CFD(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	data := t.Data()
	// Nose at (n/2, n/5); chord along +col.
	nr, nc := float64(n)/2, float64(n)/5
	drawNormals(data, rng)
	par.For(n*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, c := i/n, i%n
			dr, dc := float64(r)-nr, float64(c)-nc
			d := math.Hypot(dr, dc)
			// Stagnation pressure bump.
			p := float64(2.5 * math.Exp(-d/(float64(n)*0.06)))
			// Suction (low pressure) lobes above/below the chord
			// downstream of the nose.
			if dc > 0 {
				p -= float64(0.9 * math.Exp(-math.Abs(math.Abs(dr)-float64(float64(n)*0.08))/(float64(n)*0.05)) *
					math.Exp(-dc/(float64(n)*0.5)))
			}
			// Free stream + measurement noise.
			p += 1.0 + float64(0.02*data[i])
			data[i] = p
		}
	})
	return t
}

// drawNormals fills data with one standard normal draw per point, in
// raster order. The generators take their per-point noise this way
// before a parallel pass reads each point's draw back: the seed fixes
// every draw and the generator leaves rng where a serial loop would.
func drawNormals(data []float64, rng *rand.Rand) {
	for i := range data {
		data[i] = rng.NormFloat64()
	}
}
