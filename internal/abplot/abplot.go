// Package abplot implements the paper's augmentation–bandwidth plot
// (§III-C step 2): a linear map from the estimated available bandwidth
// B̃W_s to the degree of augmentation in [0,1].
//
//	B̃W_s <= BWLow  -> 0 (heavily loaded: no optional augmentation)
//	B̃W_s >= BWHigh -> 1 (lightly loaded: full augmentation)
//	otherwise       -> linear interpolation between the two
package abplot

// Plot is an augmentation-bandwidth plot with the two thresholds in
// bytes/sec. The paper's defaults are BWLow = 30 MB/s, BWHigh = 120 MB/s
// (§IV-A).
type Plot struct {
	BWLow  float64
	BWHigh float64
}

// Default returns the paper's configuration.
func Default() Plot {
	const mb = 1024 * 1024
	return Plot{BWLow: 30 * mb, BWHigh: 120 * mb}
}

// Degree returns the augmentation degree abplot(B̃W) ∈ [0,1] for an
// estimated bandwidth.
func (p Plot) Degree(bw float64) float64 {
	switch {
	case bw <= p.BWLow:
		return 0
	case bw >= p.BWHigh:
		return 1
	default:
		return (bw - p.BWLow) / (p.BWHigh - p.BWLow)
	}
}
