// Interactive steering: the accuracy an exploratory analysis needs
// becomes clear only during post-processing. The session starts with a
// loose guarantee (fast steps); when the scientist spots a feature worth
// resolving, the bound is tightened at runtime with Session.SetBound and
// Tango retrieves the extra augmentations — still adapting to the
// interference and still weight-assisted.
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

	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	tango.LaunchTableIVNoise(node, hdd, 6)
	scale := 2048.0 * 1024 * 1024 / float64(h.BaseBytes()+h.TotalAugBytes())
	store, err := tango.StageScaled(h, node.Tiers(), scale)
	if err != nil {
		log.Fatal(err)
	}

	sess, err := tango.NewSession("explorer", store, tango.SessionConfig{
		Policy:       tango.CrossLayer,
		ErrorControl: true,
		Bound:        1e-1, // start loose: quick look
		Priority:     tango.PriorityHigh,
		Steps:        30,
		// Refit quickly so adaptation engages within this short demo.
		Window:     8,
		RefitEvery: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Launch(node); err != nil {
		log.Fatal(err)
	}

	// At t=600 s the scientist spots blob activity and tightens to 1e-2;
	// at t=1200 s they zoom in further to 1e-3.
	node.Engine().At(node.Engine().Now()+600, func() {
		fmt.Println(">>> t=600s: tightening bound to 1e-2")
		if err := sess.SetBound(1e-2); err != nil {
			log.Fatal(err)
		}
	})
	node.Engine().At(node.Engine().Now()+1200, func() {
		fmt.Println(">>> t=1200s: tightening bound to 1e-3")
		if err := sess.SetBound(1e-3); err != nil {
			log.Fatal(err)
		}
	})
	if err := node.Engine().Run(30*60 + 3600); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%5s %9s %10s %12s %14s\n", "step", "t(s)", "io(s)", "DoF%", "outcome err")
	cache := map[int]float64{}
	for _, st := range sess.Stats() {
		if st.Step%3 != 0 {
			continue
		}
		oe, ok := cache[st.Cursor]
		if !ok {
			oe = app.OutcomeErr(field, h.Recompose(st.Cursor))
			cache[st.Cursor] = oe
		}
		fmt.Printf("%5d %9.0f %10.3f %11.1f%% %14.4f\n",
			st.Step, st.Start, st.IOTime, 100*h.DoFFraction(st.Cursor), oe)
	}
	fmt.Println("\nthe bound tightens mid-run without restarting the container, the weight")
	fmt.Println("function keeps pricing each bucket, and the error guarantee holds throughout.")
}
