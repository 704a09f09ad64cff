package harness

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/runpool"
)

// TestParallelSuiteByteIdentical is the runner's determinism contract:
// the JSON a tangobench -json run emits must be byte-identical whether
// scenario jobs run inline on one worker or concurrently on four. The
// subset mixes a pure-compute fan-out (fig2), a session fan-out with
// nested jobs (fig10), and the fault-injection rows (chaos).
func TestParallelSuiteByteIdentical(t *testing.T) {
	cfg := Config{GridN: 65, Seed: 7, Steps: 20, SkipWarmup: 5, DatasetMB: 256}
	ids := []string{"fig2", "fig10", "chaos"}
	suite := func(workers int) []byte {
		runpool.SetWorkers(workers)
		defer runpool.SetWorkers(0)
		var results []*Result
		for _, id := range ids {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, e.Run(cfg))
		}
		var buf bytes.Buffer
		if err := WriteSuiteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := suite(1)
	par := suite(4)
	if !bytes.Equal(seq, par) {
		sl, pl := bytes.Split(seq, []byte("\n")), bytes.Split(par, []byte("\n"))
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if !bytes.Equal(sl[i], pl[i]) {
				t.Fatalf("parallel output diverges at line %d:\nseq: %s\npar: %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("parallel output length differs: seq %d bytes, par %d bytes", len(seq), len(par))
	}
}

// TestMemoComputesEachKeyOnce: callers that ask for one key together
// share one compute and its value; another key computes its own.
func TestMemoComputesEachKeyOnce(t *testing.T) {
	var c memo[*int]
	var computes atomic.Int32
	compute := func() *int {
		computes.Add(1)
		time.Sleep(5 * time.Millisecond) // let the other callers arrive
		return new(int)
	}
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get(hierKey{app: "a"}, compute)
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got another value than caller 0", i)
		}
	}
	if c.get(hierKey{app: "b"}, compute) == got[0] || c.get(hierKey{app: "a"}, compute) != got[0] {
		t.Fatal("memo keys do not select their own values")
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("%d computes for 2 keys", n)
	}
}
