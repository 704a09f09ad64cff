package analytics

import (
	"fmt"
	"math"

	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// Component is one detected blob with its geometry — the per-blob detail
// that temporal tracking needs (DetectBlobs only aggregates).
type Component struct {
	Row, Col float64 // centroid (cells)
	Area     float64
	Peak     float64
}

// DetectComponents returns each blob DetectBlobs counts, with its
// centroid.
func DetectComponents(t *tensor.Tensor, o BlobOptions) []Component {
	var out []Component
	eachComponent(t, o, func(c Component) { out = append(out, c) })
	return out
}

// eachComponent thresholds the field at mean + SigmaK·std and calls visit
// with each 4-connected component of at least MinArea cells, in scan order.
func eachComponent(t *tensor.Tensor, o BlobOptions, visit func(Component)) {
	dims := t.Dims()
	if len(dims) != 2 {
		panic(fmt.Sprintf("analytics: blob detection expects 2D, got %v", dims))
	}
	rows, cols := dims[0], dims[1]
	data := t.Data()

	mean, variance := meanVariance(data)
	if variance == 0 {
		// A constant field has no background fluctuation to deviate from.
		return
	}
	thresh := mean + float64(o.SigmaK*math.Sqrt(variance))

	// Iterative flood fill (explicit stack; the grid can be millions of
	// cells), one visited bit per cell. The stack starts in an array deeper
	// than XGC fills at 1025² reach (2,283), so the bitset is all they allocate.
	visited := make([]uint64, (len(data)+63)/64)
	seen := func(i int) bool { return visited[i/64]&(1<<(uint(i)%64)) != 0 }
	var stackBuf [4096]int
	stack := stackBuf[:0]
	for start := range data {
		if seen(start) || data[start] < thresh {
			continue
		}
		var area, sumR, sumC, peak float64
		peak = math.Inf(-1)
		stack = append(stack[:0], start)
		visited[start/64] |= 1 << (uint(start) % 64)
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, c := idx/cols, idx%cols
			area++
			sumR += float64(r)
			sumC += float64(c)
			if data[idx] > peak {
				peak = data[idx]
			}
			for _, nb := range [4][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				nr, nc := nb[0], nb[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				ni := nr*cols + nc
				if !seen(ni) && data[ni] >= thresh {
					visited[ni/64] |= 1 << (uint(ni) % 64)
					stack = append(stack, ni)
				}
			}
		}
		if int(area) >= o.MinArea {
			visit(Component{Row: sumR / area, Col: sumC / area, Area: area, Peak: peak})
		}
	}
}

// Track is one blob followed across frames.
type Track struct {
	Start     int         // first frame index
	Positions []Component // one per consecutive frame
}

// Len returns the track length in frames.
func (t Track) Len() int { return len(t.Positions) }

// MeanSpeed returns the mean per-frame centroid displacement (cells).
func (t Track) MeanSpeed() float64 {
	if len(t.Positions) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(t.Positions); i++ {
		dr := t.Positions[i].Row - t.Positions[i-1].Row
		dc := t.Positions[i].Col - t.Positions[i-1].Col
		sum += math.Hypot(dr, dc)
	}
	return sum / float64(len(t.Positions)-1)
}

// TrackBlobs follows detected blobs across a frame sequence by greedy
// nearest-centroid matching (gated by maxJump cells per frame) — the
// blob-filament transport analysis of the paper's XGC citations.
func TrackBlobs(frames []*tensor.Tensor, o BlobOptions, maxJump float64) []Track {
	var tracks []Track
	var prev []Component
	prevTrack := map[int]int{}

	for f, frame := range frames {
		cur := DetectComponents(frame, o)
		curTrack := map[int]int{}
		used := make([]bool, len(cur))
		// Greedy match previous components to nearest current ones.
		for pi, pc := range prev {
			best, bestD := -1, maxJump
			for ci, cc := range cur {
				if used[ci] {
					continue
				}
				d := math.Hypot(cc.Row-pc.Row, cc.Col-pc.Col)
				if d <= bestD {
					best, bestD = ci, d
				}
			}
			if best >= 0 {
				used[best] = true
				ti := prevTrack[pi]
				tracks[ti].Positions = append(tracks[ti].Positions, cur[best])
				curTrack[best] = ti
			}
		}
		// Unmatched current components start new tracks.
		for ci, cc := range cur {
			if used[ci] {
				continue
			}
			tracks = append(tracks, Track{Start: f, Positions: []Component{cc}})
			curTrack[ci] = len(tracks) - 1
		}
		prev, prevTrack = cur, curTrack
	}
	return tracks
}

// TrackStats summarizes a track set for comparison between full and
// reduced data.
type TrackStats struct {
	Tracks     int
	MeanLength float64 // frames
	MeanSpeed  float64 // cells/frame, over tracks with >= 2 frames
}

// SummarizeTracks aggregates tracks at least minLen frames long.
func SummarizeTracks(tracks []Track, minLen int) TrackStats {
	var st TrackStats
	var speedN int
	for _, t := range tracks {
		if t.Len() < minLen {
			continue
		}
		st.Tracks++
		st.MeanLength += float64(t.Len())
		if t.Len() >= 2 {
			st.MeanSpeed += t.MeanSpeed()
			speedN++
		}
	}
	if st.Tracks > 0 {
		st.MeanLength /= float64(st.Tracks)
	}
	if speedN > 0 {
		st.MeanSpeed /= float64(speedN)
	}
	return st
}

// RelErrVs returns the mean relative error of track count, length, and
// speed against a reference.
func (s TrackStats) RelErrVs(ref TrackStats) float64 {
	return meanRelErr(errmetric.RelErr(float64(ref.Tracks), float64(s.Tracks)),
		errmetric.RelErr(ref.MeanLength, s.MeanLength),
		errmetric.RelErr(ref.MeanSpeed, s.MeanSpeed))
}
