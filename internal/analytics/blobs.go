// Package analytics implements the three data analyses of the paper's
// evaluation (§IV-A) and the outcome-error measures used in Figs 2 and
// 10: XGC blob detection (count, average diameter), GenASiS 2D rendering
// (SSIM, Dice), and CFD high-pressure area and force.
package analytics

import (
	"math"

	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// BlobStats summarizes detected blobs in an XGC potential field.
type BlobStats struct {
	Count       int
	AvgDiameter float64 // 2·sqrt(area/π), averaged over blobs (cells)
	TotalArea   float64 // cells
	MeanPeak    float64 // mean of per-blob maxima
}

// BlobOptions configures detection.
type BlobOptions struct {
	// SigmaK: the detection threshold is mean + SigmaK·stddev of the
	// field (how much the potential "deviates from the background").
	SigmaK float64
	// MinArea discards components smaller than this many cells.
	MinArea int
}

// DefaultBlobOptions matches the synthetic XGC generator's blob scale.
func DefaultBlobOptions() BlobOptions { return BlobOptions{SigmaK: 3, MinArea: 9} }

// DetectBlobs thresholds the field at mean + SigmaK·std and extracts
// 4-connected components, the standard blob-filament detection the paper
// cites ([36], [37]).
func DetectBlobs(t *tensor.Tensor, o BlobOptions) BlobStats {
	var stats BlobStats
	eachComponent(t, o, func(c Component) {
		stats.Count++
		stats.TotalArea += c.Area
		stats.AvgDiameter += 2 * math.Sqrt(c.Area/math.Pi)
		stats.MeanPeak += c.Peak
	})
	if stats.Count > 0 {
		stats.AvgDiameter /= float64(stats.Count)
		stats.MeanPeak /= float64(stats.Count)
	}
	return stats
}

// RelErrVs returns the relative error of this outcome against a reference
// (full-data) outcome, averaged over blob count and average diameter —
// the characteristics the paper reports for XGC.
func (b BlobStats) RelErrVs(ref BlobStats) float64 {
	return meanRelErr(errmetric.RelErr(float64(ref.Count), float64(b.Count)),
		errmetric.RelErr(ref.AvgDiameter, b.AvgDiameter))
}

// meanRelErr averages relative errors, an infinite one (against a zero
// reference) counting as 1.
func meanRelErr(errs ...float64) float64 {
	var sum float64
	for _, e := range errs {
		if math.IsInf(e, 1) {
			e = 1
		}
		sum += e
	}
	return sum / float64(len(errs))
}

// meanVariance returns the mean and the population variance of data, the
// two moments every detection threshold (mean + k·σ) is drawn from.
func meanVariance(data []float64) (mean, variance float64) {
	for _, v := range data {
		mean += v
	}
	mean /= float64(len(data))
	for _, v := range data {
		d := v - mean
		variance += float64(d * d)
	}
	variance /= float64(len(data))
	return mean, variance
}
