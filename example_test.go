package tango_test

// Runnable godoc examples for the public API. Each runs as part of the
// test suite (the deterministic simulator makes outputs stable).

import (
	"fmt"
	"math"

	"tango"
)

// ExampleDecompose shows error-bounded refactorization of a raw grid.
func ExampleDecompose() {
	n := 65
	data := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			data[r*n+c] = math.Sin(4 * math.Pi * float64(r*n+c) / float64(n*n))
		}
	}
	h, err := tango.Decompose(data, []int{n, n}, tango.RefactorOptions{
		Levels: 3,
		Bounds: []float64{0.1, 0.01},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("levels: %d\n", h.Levels())
	fmt.Printf("base points: %d of %d\n", h.Base().Len(), n*n)
	for _, r := range h.Rungs() {
		fmt.Printf("bound %g satisfied: %v\n", r.Bound, r.Achieved <= r.Bound)
	}
	// Output:
	// levels: 3
	// base points: 289 of 4225
	// bound 0.1 satisfied: true
	// bound 0.01 satisfied: true
}

// ExampleHierarchy_Recompose reconstructs at a chosen accuracy.
func ExampleHierarchy_Recompose() {
	data := make([]float64, 33*33)
	for i := range data {
		data[i] = float64(i % 7)
	}
	h, err := tango.Decompose(data, []int{33, 33}, tango.RefactorOptions{Levels: 2})
	if err != nil {
		panic(err)
	}
	full := h.Recompose(h.TotalEntries())
	orig := tango.TensorFromData(data, 33, 33)
	fmt.Printf("lossless at full augmentation: %v\n", full.AbsDiffMax(orig) < 1e-9)
	// Output:
	// lossless at full augmentation: true
}

// ExampleNewNode builds a two-tier node and runs a custom container that
// reads from the capacity tier in virtual time.
func ExampleNewNode() {
	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))

	var elapsed float64
	node.MustLaunch("reader", func(c *tango.Container, p *tango.Proc) {
		elapsed = hdd.Read(p, c.Cgroup(), 160*tango.MB)
	})
	if err := node.Engine().RunAll(); err != nil {
		panic(err)
	}
	fmt.Printf("tiers: %d\n", len(node.Tiers()))
	fmt.Printf("read 160 MB in about a second: %v\n", elapsed > 0.9 && elapsed < 1.2)
	// Output:
	// tiers: 2
	// read 160 MB in about a second: true
}

// ExampleLevelsForRatio converts the paper's decimation-ratio axis to a
// level count.
func ExampleLevelsForRatio() {
	fmt.Println(tango.LevelsForRatio(16, 2, 2))
	fmt.Println(tango.LevelsForRatio(8192, 2, 2))
	// Output:
	// 3
	// 8
}
