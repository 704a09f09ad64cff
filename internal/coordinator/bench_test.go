package coordinator

import (
	"fmt"
	"testing"

	"tango/internal/blkio"
)

// BenchmarkRequestUniqueMax re-requests the scale from its only holder
// among 100 and 1,000 active sessions, the fleet's sessions per node and
// ten times that. A re-request at the maximum keeps the scale where it is,
// so it neither rescans the sessions for a new maximum nor sweeps their
// grants: the time per request is flat in the session count.
func BenchmarkRequestUniqueMax(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			a := New()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("s%d", i)
				if err := a.Attach(name, blkio.NewCgroup(name)); err != nil {
					b.Fatal(err)
				}
				a.MustRequest(name, 200+i%5*100)
			}
			a.MustRequest("s0", blkio.MaxWeight)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MustRequest("s0", blkio.MaxWeight)
			}
		})
	}
}
