package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
)

// TraceOp is one recorded I/O operation to replay: at virtual time T,
// transfer Bytes (write unless Read is set).
type TraceOp struct {
	T     float64
	Bytes float64
	Read  bool
}

// ParseTrace reads a CSV-like trace: one op per line,
// "time_seconds,bytes[,r|w]", with time and bytes finite and ≥ 0. Blank
// lines and lines starting with '#' are skipped. Ops are returned sorted
// by time.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("workload: trace line %d: want time,bytes[,r|w]", lineNo)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil || !finiteNonNeg(t) {
			return nil, fmt.Errorf("workload: trace line %d: bad time %q", lineNo, parts[0])
		}
		b, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || !finiteNonNeg(b) {
			return nil, fmt.Errorf("workload: trace line %d: bad bytes %q", lineNo, parts[1])
		}
		op := TraceOp{T: t, Bytes: b}
		if len(parts) == 3 {
			switch strings.TrimSpace(parts[2]) {
			case "r", "R":
				op.Read = true
			case "w", "W", "":
			default:
				return nil, fmt.Errorf("workload: trace line %d: bad direction %q", lineNo, parts[2])
			}
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].T < ops[j].T })
	return ops, nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// ReplayTrace launches a container that replays the ops against dev: each
// op is issued at its recorded time (or immediately, if the previous op
// is still in flight past that time — open-loop arrival with a closed-
// loop device, like a real replayer). Returns the container. An op whose
// time or size is not finite and >= 0 panics here, as in RandomNoise.
func ReplayTrace(node *container.Node, dev *device.Device, name string, ops []TraceOp) *container.Container {
	for _, op := range ops {
		mustNonNeg(name, "op time", op.T)
		mustNonNeg(name, "op size", op.Bytes)
	}
	c := node.MustCreate(name)
	r := &replayer{dev: dev, cg: c.Cgroup(), ops: ops}
	node.Engine().AtCall(node.Engine().Now(), r)
	return c
}

// replayer is the loop "sleep until the op's time if it is ahead, then
// transfer it" as engine callbacks: the launch hop, each sleep armed at
// now+wait, and each op's issue and end (the device's).
type replayer struct {
	dev   *device.Device
	cg    *blkio.Cgroup
	ops   []TraceOp
	next  int  // the next op to issue
	slept bool // the wait before ops[next] is over
	tok   device.Token
}

// Fire takes the launch hop or ends a sleep.
func (r *replayer) Fire() { r.issue() }

// TransferDone goes on to the next op.
func (r *replayer) TransferDone(*device.Token, error) { r.issue() }

// issue starts the next op, or first sleeps until its time.
func (r *replayer) issue() {
	if r.next >= len(r.ops) {
		return
	}
	op := r.ops[r.next]
	eng := r.dev.Engine()
	if wait := op.T - eng.Now(); wait > 0 && !r.slept {
		r.slept = true
		eng.AtCall(eng.Now()+wait, r)
		return
	}
	r.slept = false
	r.next++
	if ended, _ := r.dev.Begin(r.cg, op.Bytes, !op.Read, false, &r.tok, 0, r); ended {
		r.issue()
	}
}

// SynthesizeTrace converts a Noise spec into an explicit trace of n
// checkpoints — useful for exporting the Table IV workload for external
// replay, and round-trip tested against LaunchNoise.
func SynthesizeTrace(noise Noise, n int) []TraceOp {
	ops := make([]TraceOp, 0, n)
	t := noise.Phase
	for i := 0; i < n; i++ {
		ops = append(ops, TraceOp{T: t, Bytes: noise.CheckpointBytes})
		t += noise.Period
	}
	return ops
}

// WriteTrace serializes ops in the ParseTrace format.
func WriteTrace(w io.Writer, ops []TraceOp) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# time_seconds,bytes,direction"); err != nil {
		return err
	}
	for _, op := range ops {
		dir := "w"
		if op.Read {
			dir = "r"
		}
		if _, err := fmt.Fprintf(bw, "%g,%g,%s\n", op.T, op.Bytes, dir); err != nil {
			return err
		}
	}
	return bw.Flush()
}
