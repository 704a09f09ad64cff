package trace

import "testing"

// BenchmarkEmitPreformatted measures an emit with no arguments: the
// format is kept verbatim.
func BenchmarkEmitPreformatted(b *testing.B) {
	b.ReportAllocs()
	r := New(4096)
	for i := 0; i < b.N; i++ {
		r.Emit(float64(i), "sess", KindStep, "step complete")
	}
}

// BenchmarkEmitFormatted measures the controller's per-step telemetry
// shape: arguments are copied into the ring, not formatted.
func BenchmarkEmitFormatted(b *testing.B) {
	b.ReportAllocs()
	r := New(4096)
	for i := 0; i < b.N; i++ {
		r.Emit(float64(i), "sess", KindStep, "step=%d io=%.3f", i, 0.25)
	}
}

// BenchmarkEmitSixArgs is the widest event the stack emits (core's step
// record), into a live recorder.
func BenchmarkEmitSixArgs(b *testing.B) {
	b.ReportAllocs()
	r := New(4096)
	for i := 0; i < b.N; i++ {
		f := float64(i)
		r.Emit(f, "sess", KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f", i, f, f*1e6, i+1, f*2, 0.5)
	}
}

// untraced is a recorder the compiler cannot prove nil, as a config
// field is.
var untraced *Recorder

// BenchmarkEmitNilRecorder pins the disabled path at the six-argument
// shape: the caller's argument slice on its stack, then a nil check.
func BenchmarkEmitNilRecorder(b *testing.B) {
	b.ReportAllocs()
	r := untraced
	for i := 0; i < b.N; i++ {
		f := float64(i)
		r.Emit(f, "sess", KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f", i, f, f*1e6, i+1, f*2, 0.5)
	}
}

// BenchmarkEventMsg measures what the formatting costs now that it
// happens on read.
func BenchmarkEventMsg(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	r.Emit(1, "sess", KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f", 7, 0.25, 3e6, 12, 1e8, 0.5)
	ev := r.Events()[0]
	for i := 0; i < b.N; i++ {
		msgSink = ev.Msg()
	}
}

var msgSink string
