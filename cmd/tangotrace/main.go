// Command tangotrace replays recorded I/O traces against a simulated
// device and reports contention statistics — for studying interference
// workloads outside a full Tango session, or exporting the Table IV set
// for external tools.
//
//	tangotrace export -noise 6 -count 20 -out tableiv.trace
//	tangotrace replay -in tableiv.trace -probe 60
//	tangotrace replay -in a.trace -in2 b.trace
//
// Trace format: one op per line, "time_seconds,bytes[,r|w]"; lines
// starting with '#' are comments.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"tango"
	"tango/internal/device"
	"tango/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "export":
		err = export(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tangotrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tangotrace {export|replay} [flags]")
	os.Exit(2)
}

// export writes the first -count checkpoints of the Table IV interferers
// (jitter-free, for reproducible external replay) as one merged trace.
func export(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	nNoise := fs.Int("noise", 6, "number of Table IV interferers (1-6)")
	count := fs.Int("count", 20, "checkpoints per interferer")
	out := fs.String("out", "", "output trace file")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("export needs -out")
	}
	if *count < 1 {
		return fmt.Errorf("-count must be at least 1, got %d", *count)
	}
	set := workload.PaperNoiseSet()
	if *nNoise < 1 || *nNoise > len(set) {
		return fmt.Errorf("-noise must be 1..%d", len(set))
	}
	var ops []workload.TraceOp
	for _, n := range set[:*nNoise] {
		ops = append(ops, workload.SynthesizeTrace(n, *count)...)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, ops); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("exported %d ops from %d interferers to %s\n", len(ops), *nNoise, *out)
	return nil
}

// replay runs one or two traces against a simulated HDD, optionally with
// a periodic probe reader measuring the bandwidth an analytics container
// would perceive.
func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "trace file")
	in2 := fs.String("in2", "", "optional second trace (sharing the device)")
	probe := fs.Float64("probe", 0, "probe-read period in seconds (0 = no probe)")
	probeMB := fs.Float64("probe-mb", 64, "probe read size in MB")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("replay needs -in")
	}
	if !(*probe >= 0) || math.IsInf(*probe, 1) {
		return fmt.Errorf("-probe must be a finite period ≥ 0, got %g", *probe)
	}
	if *probe > 0 && (!(*probeMB > 0) || math.IsInf(*probeMB, 1)) {
		return fmt.Errorf("-probe-mb must be finite and > 0, got %g", *probeMB)
	}
	load := func(path string) ([]workload.TraceOp, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ops, err := workload.ParseTrace(f)
		if err == nil && len(ops) == 0 {
			err = fmt.Errorf("%s: trace has no ops", path)
		}
		return ops, err
	}
	ops, err := load(*in)
	if err != nil {
		return err
	}

	node := tango.NewNode("replay")
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	workload.ReplayTrace(node, hdd, "trace1", ops)
	horizon := ops[len(ops)-1].T + 600

	if *in2 != "" {
		ops2, err := load(*in2)
		if err != nil {
			return err
		}
		workload.ReplayTrace(node, hdd, "trace2", ops2)
		if h := ops2[len(ops2)-1].T + 600; h > horizon {
			horizon = h
		}
	}

	var samples []float64
	if *probe > 0 {
		steps := int(horizon / *probe)
		workload.PeriodicReader(node, hdd, "probe", *probe, steps,
			func(int) float64 { return *probeMB * 1024 * 1024 },
			func(step int, start, ioTime, bytes float64) {
				samples = append(samples, bytes/ioTime)
			})
	}
	if err := node.Engine().Run(horizon); err != nil {
		return err
	}

	fmt.Printf("replayed %s on %s (%.0f MB/s peak)\n", *in, hdd.Name(), hdd.Params().PeakBandwidth/device.MB)
	fmt.Printf("  device busy: %.1fs of %.1fs (%.1f%%)\n",
		hdd.BusyTime(), node.Engine().Now(), 100*hdd.BusyTime()/node.Engine().Now())
	fmt.Printf("  bytes served: %.1f GB\n", hdd.TotalBytes()/(1024*1024*1024))
	if len(samples) > 0 {
		var min, max, sum float64 = samples[0], samples[0], 0
		for _, s := range samples {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
			sum += s
		}
		fmt.Printf("  probe bandwidth over %d reads: mean %.1f MB/s, min %.1f, max %.1f\n",
			len(samples), sum/float64(len(samples))/device.MB, min/device.MB, max/device.MB)
	}
	return nil
}
