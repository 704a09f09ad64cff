package core

import (
	"math"
	"slices"
)

// Summary aggregates a session's step records the way the paper reports
// them: average I/O time with its variation (error bars), plus tail
// percentiles (I/O *consistency*, not just averages, is the problem the
// paper targets — see its Related Work critique of peak-only metrics).
type Summary struct {
	Steps     int
	MeanIO    float64 // mean per-step I/O time (s)
	StdIO     float64 // sample standard deviation
	MinIO     float64
	MaxIO     float64
	P50IO     float64 // median per-step I/O time
	P95IO     float64 // 95th-percentile per-step I/O time
	MeanBytes float64
	MeanBW    float64 // mean perceived bandwidth (bytes/s)
}

// percentile returns the q-quantile (0..1) of sorted xs by nearest-rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summarize aggregates the given steps; steps before `skip` are dropped
// (e.g. to exclude the full-retrieval warm-up while the estimator trains).
func Summarize(stats []StepStats, skip int) Summary {
	if skip < 0 {
		skip = 0
	}
	if skip > len(stats) {
		skip = len(stats)
	}
	stats = stats[skip:]
	s := Summary{Steps: len(stats), MinIO: math.Inf(1), MaxIO: math.Inf(-1)}
	if len(stats) == 0 {
		s.MinIO, s.MaxIO = 0, 0
		return s
	}
	var sumIO, sumBytes, sumBW float64
	for _, st := range stats {
		sumIO += st.IOTime
		sumBytes += st.Bytes
		if st.IOTime > 0 {
			sumBW += st.Bytes / st.IOTime
		}
		if st.IOTime < s.MinIO {
			s.MinIO = st.IOTime
		}
		if st.IOTime > s.MaxIO {
			s.MaxIO = st.IOTime
		}
	}
	n := float64(len(stats))
	s.MeanIO = sumIO / n
	s.MeanBytes = sumBytes / n
	s.MeanBW = sumBW / n
	if len(stats) > 1 {
		var ss float64
		for _, st := range stats {
			d := st.IOTime - s.MeanIO
			ss += float64(d * d)
		}
		s.StdIO = math.Sqrt(ss / (n - 1))
	}
	ios := make([]float64, 0, 1024) // on the stack, spilling to the heap past 1,024 steps
	for _, st := range stats {
		ios = append(ios, st.IOTime)
	}
	slices.Sort(ios)
	s.P50IO = percentile(ios, 0.50)
	s.P95IO = percentile(ios, 0.95)
	return s
}

// Summary returns the session's aggregate over all steps after skip.
func (s *Session) Summary(skip int) Summary { return Summarize(s.stats, skip) }
