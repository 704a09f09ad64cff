// XGC blob detection over refactored data: shows how the analysis
// outcome (blob count, average diameter) degrades across the error-bound
// ladder, and runs the detection pipeline live under interference with
// error control at NRMSE 0.01.
package main

import (
	"fmt"
	"log"

	"tango"
)

func main() {
	app := tango.XGCApp()
	field := app.Generate(513, 42)

	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{
		Levels: tango.LevelsForRatio(16, 2, 2),
		Bounds: []float64{1e-1, 1e-2, 1e-3},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Outcome quality along the ladder.
	fmt.Println("accuracy ladder vs blob-detection outcome:")
	fmt.Printf("  %-12s %-10s %-12s\n", "bound", "DoF%", "outcome err")
	fmt.Printf("  %-12s %-10.1f %-12.4f\n", "base only", 100*h.DoFFraction(0),
		app.OutcomeErr(field, h.Recompose(0)))
	for _, r := range h.Rungs() {
		rec := h.Recompose(r.Cursor)
		fmt.Printf("  %-12g %-10.1f %-12.4f\n", r.Bound, 100*h.DoFFraction(r.Cursor),
			app.OutcomeErr(field, rec))
	}

	// Live session under the full Table IV interference set.
	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	tango.LaunchTableIVNoise(node, hdd, 6)
	scale := 2048.0 * 1024 * 1024 / float64(h.BaseBytes()+h.TotalAugBytes())
	store, err := tango.StageScaled(h, node.Tiers(), scale)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := tango.NewSession("xgc", store, tango.SessionConfig{
		Policy:       tango.CrossLayer,
		ErrorControl: true,
		Bound:        0.01,
		Priority:     tango.PriorityHigh,
		Steps:        45,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Launch(node); err != nil {
		log.Fatal(err)
	}
	if err := node.Engine().Run(45*60 + 3600); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nlive steps (every 5th) with per-step outcome error:")
	cache := map[int]float64{}
	for i, st := range sess.Stats() {
		if i%5 != 0 {
			continue
		}
		outErr, ok := cache[st.Cursor]
		if !ok {
			outErr = app.OutcomeErr(field, h.Recompose(st.Cursor))
			cache[st.Cursor] = outErr
		}
		fmt.Printf("  step %2d: io=%6.2fs  retrieved %5.1f%% DoF  outcome err %.4f\n",
			i, st.IOTime, 100*h.DoFFraction(st.Cursor), outErr)
	}
	sum := sess.Summary(30)
	fmt.Printf("\nmean I/O %.2fs over the measured window; NRMSE bound 0.01 held on every step\n", sum.MeanIO)
}
