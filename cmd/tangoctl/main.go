// Command tangoctl performs offline error-bounded refactorization of raw
// float64 grid files (little-endian, row-major):
//
//	tangoctl decompose -in field.raw -dims 512x512 -levels 3 \
//	        -bounds 0.1,0.01,0.001 -out field.tng
//	tangoctl inspect -in field.tng
//	tangoctl recompose -in field.tng -bound 0.01 -out rec.raw
//	tangoctl recompose -in field.tng -fraction 0.5 -out rec.raw
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"tango"
	"tango/internal/cliutil"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "decompose":
		err = decompose(os.Args[2:])
	case "inspect":
		err = inspect(os.Args[2:])
	case "recompose":
		err = recompose(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tangoctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tangoctl {decompose|inspect|recompose} [flags]")
	os.Exit(2)
}

func decompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	in := fs.String("in", "", "input raw float64 file")
	dimsStr := fs.String("dims", "", "grid dims, e.g. 512x512")
	levels := fs.Int("levels", 3, "hierarchy levels")
	decim := fs.Int("d", 2, "per-level decimation factor")
	metric := fs.String("metric", "nrmse", "error metric: nrmse|psnr")
	boundsStr := fs.String("bounds", "", "error bounds, loose to tight, comma-separated")
	out := fs.String("out", "", "output .tng file")
	fs.Parse(args)
	if *in == "" || *dimsStr == "" || *out == "" {
		return fmt.Errorf("decompose needs -in, -dims, -out")
	}
	dims, err := cliutil.ParseDims(*dimsStr)
	if err != nil {
		return err
	}
	m, err := cliutil.ParseMetric(*metric)
	if err != nil {
		return err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	data, err := cliutil.ReadRawFloat64s(*in, n)
	if err != nil {
		return err
	}
	bounds, err := cliutil.ParseBounds(*boundsStr)
	if err != nil {
		return err
	}
	h, err := tango.Decompose(data, dims, tango.RefactorOptions{
		Levels: *levels, Decimation: *decim, Metric: m, Bounds: bounds,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := h.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("decomposed %v into %d levels, %d augmentation entries, base accuracy %.4g\n",
		dims, h.Levels(), h.TotalEntries(), h.BaseAccuracy())
	return nil
}

func loadHierarchy(path string) (*tango.Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tango.DecodeHierarchy(bufio.NewReader(f))
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input .tng file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect needs -in")
	}
	h, err := loadHierarchy(*in)
	if err != nil {
		return err
	}
	o := h.Opts()
	fmt.Printf("dims:        %v\n", h.Dims())
	fmt.Printf("levels:      %d (decimation %d)\n", h.Levels(), o.Decimation)
	fmt.Printf("metric:      %s\n", o.Metric)
	fmt.Printf("base:        %d points (%d bytes), accuracy %.4g\n",
		h.Base().Len(), h.BaseBytes(), h.BaseAccuracy())
	fmt.Printf("augmentation: %d entries (%d bytes)\n", h.TotalEntries(), h.TotalAugBytes())
	for _, r := range h.Rungs() {
		fmt.Printf("  rung eps=%-10g achieved=%-12.4g cursor=%-9d +%-8d entries at level %d (%.1f%% DoF)\n",
			r.Bound, r.Achieved, r.Cursor, r.Cardinality, r.Level, 100*h.DoFFraction(r.Cursor))
	}
	return nil
}

func recompose(args []string) error {
	fs := flag.NewFlagSet("recompose", flag.ExitOnError)
	in := fs.String("in", "", "input .tng file")
	bound := fs.Float64("bound", 0, "recompose to this error bound")
	fraction := fs.Float64("fraction", 0, "or: fraction of augmentation stream [0,1]")
	out := fs.String("out", "", "output raw float64 file")
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *in == "" || *out == "":
		return fmt.Errorf("recompose needs -in and -out")
	case set["bound"] && set["fraction"]:
		return fmt.Errorf("recompose takes -bound or -fraction, not both")
	case !(*fraction >= 0 && *fraction <= 1):
		return fmt.Errorf("-fraction %v is outside [0,1]", *fraction)
	}
	h, err := loadHierarchy(*in)
	if err != nil {
		return err
	}
	cursor := h.TotalEntries()
	switch {
	case set["bound"]:
		cursor, err = h.CursorForBound(*bound)
		if err != nil {
			return err
		}
	case set["fraction"]:
		cursor = h.CursorForFraction(*fraction)
	}
	rec := h.Recompose(cursor)
	if err := cliutil.WriteRawFloat64s(*out, rec.Data()); err != nil {
		return err
	}
	fmt.Printf("recomposed %v at cursor %d/%d (%.1f%% DoF) -> %s\n",
		h.Dims(), cursor, h.TotalEntries(), 100*h.DoFFraction(cursor), *out)
	return nil
}
