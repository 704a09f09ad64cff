// Package trace is a tangolint fixture: a stub loaded under the import
// path of tango/internal/trace, so the hotpath analyzer recognises its
// (*Recorder).Emit by full name, as it does the real one.
package trace

// Recorder stands in for the real ring buffer.
type Recorder struct{ n int }

// Emit has the real signature; its arguments are stored by value.
func (r *Recorder) Emit(t float64, source, kind, format string, args ...any) {
	if r != nil {
		r.n += len(args)
	}
}
