package synth

import (
	"math"
	"math/rand"

	"tango/internal/tensor"
)

// XGCSequence generates a time series of potential fields in which the
// injected blobs drift with per-blob velocities (the convective
// blob-filament transport the XGC analysis studies) while the background
// turbulence decorrelates slowly. Frame 0 matches XGC(o) blob-for-blob.
// Returned per frame: the field and the ground-truth blob positions.
func XGCSequence(o XGCOptions, steps int, speed float64) ([]*tensor.Tensor, [][]Blob) {
	rng := rand.New(rand.NewSource(o.Seed))
	n := o.N

	// Background modes (shared across frames, phases drift per frame).
	type mode struct{ kr, kc, phase, amp, drift float64 }
	modes := make([]mode, 12)
	for i := range modes {
		modes[i] = mode{
			kr:    (float64(rng.Float64()) - 0.5) * 24 * math.Pi / float64(n),
			kc:    (float64(rng.Float64()) - 0.5) * 24 * math.Pi / float64(n),
			phase: float64(rng.Float64()) * 2 * math.Pi,
			amp:   0.2 + float64(0.3*rng.Float64()),
			drift: (float64(rng.Float64()) - 0.5) * 0.2,
		}
	}

	// Initial blobs + per-blob velocities.
	base, blobs0 := XGC(o)
	_ = base // frame 0 is regenerated below with the same seed-derived layout
	type mover struct {
		b      Blob
		vr, vc float64
	}
	movers := make([]mover, len(blobs0))
	vr2 := rand.New(rand.NewSource(o.Seed + 7777))
	for i, b := range blobs0 {
		ang := float64(vr2.Float64()) * 2 * math.Pi
		movers[i] = mover{b: b, vr: speed * math.Sin(ang), vc: speed * math.Cos(ang)}
	}

	frames := make([]*tensor.Tensor, steps)
	truth := make([][]Blob, steps)
	noise := rand.New(rand.NewSource(o.Seed + 31337))
	for s := 0; s < steps; s++ {
		t := tensor.New(n, n)
		data := t.Data()
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				v := 0.3 * noise.NormFloat64()
				for _, m := range modes {
					v += float64(m.amp * math.Sin(float64(m.kr*float64(r))+float64(m.kc*float64(c))+m.phase+float64(m.drift*float64(s))))
				}
				data[r*n+c] = v
			}
		}
		var cur []Blob
		for _, m := range movers {
			b := m.b
			b.Row += float64(m.vr * float64(s))
			b.Col += float64(m.vc * float64(s))
			// Blobs that drift off the grid wrap (periodic domain).
			b.Row = wrap(b.Row, float64(n))
			b.Col = wrap(b.Col, float64(n))
			cur = append(cur, b)
			paintBlob(t, b)
		}
		frames[s] = t
		truth[s] = cur
	}
	return frames, truth
}

func wrap(x, n float64) float64 {
	x = math.Mod(x, n)
	if x < 0 {
		x += n
	}
	return x
}

// paintBlob adds a Gaussian bump (no wraparound painting: a blob near the
// edge is clipped, as in a real bounded field of view).
func paintBlob(t *tensor.Tensor, b Blob) {
	n := t.Dims()[0]
	data := t.Data()
	r0, r1 := int(b.Row-float64(4*b.Radius)), int(b.Row+float64(4*b.Radius))
	c0, c1 := int(b.Col-float64(4*b.Radius)), int(b.Col+float64(4*b.Radius))
	for r := max(0, r0); r <= min(n-1, r1); r++ {
		for c := max(0, c0); c <= min(n-1, c1); c++ {
			dr, dc := float64(r)-b.Row, float64(c)-b.Col
			data[r*n+c] += float64(b.Amplitude * math.Exp(-(float64(dr*dr)+float64(dc*dc))/(2*b.Radius*b.Radius)))
		}
	}
}
