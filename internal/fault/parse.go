package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"tango/internal/workload"
)

// ParsePlan parses the textual plan spec used by `tangosim -faults`
// (grammar documented in docs/faults.md):
//
//	plan  := event (';' event)*
//	event := kind '@' seconds ':' key '=' value (',' key '=' value)*
//
// Example:
//
//	bw-collapse@900:dev=hdd,factor=0.2,dur=120; read-err@1500:dev=hdd,dur=45;
//	weight-fail@600:cg=analytics,dur=180; join@1800:name=noise7,period=90,mb=512;
//	leave@2400:name=noise1; period@3000:name=noise2,period=75
//
// Sizes are MB, times and durations seconds; String() round-trips.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, ev)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("fault: empty plan spec")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseEvent(s string) (Event, error) {
	head, params, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q missing ':' before params", s)
	}
	kindStr, atStr, ok := strings.Cut(strings.TrimSpace(head), "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q missing '@time'", s)
	}
	kind := Kind(slices.IndexFunc(kinds[:], func(r kindRow) bool { return r.name == strings.TrimSpace(kindStr) }))
	if kind < 0 {
		return Event{}, fmt.Errorf("fault: unknown kind %q (want one of %s)", kindStr, allKindNames())
	}
	at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
	if err != nil {
		return Event{}, fmt.Errorf("fault: bad time in %q: %v", s, err)
	}
	ev := Event{At: at, Kind: kind}
	kv := map[string]string{}
	for _, pair := range strings.Split(params, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return Event{}, fmt.Errorf("fault: param %q in %q is not key=value", pair, s)
		}
		kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	// num parses key into *dst if present; the first bad value fails at the end.
	var bad error
	num := func(key string, dst *float64) bool {
		v, ok := kv[key]
		if !ok {
			return false
		}
		delete(kv, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil && bad == nil {
			bad = fmt.Errorf("fault: bad %s in %q: %v", key, s, err)
		}
		*dst = f
		return true
	}
	str := func(key string) string {
		v := kv[key]
		delete(kv, key)
		return v
	}

	row := kind.row()
	ev.Target = str(row.target)
	if row.windowed { // elsewhere dur is an unknown param, which String would drop
		num("dur", &ev.Duration)
	}
	if row.factor != "" && !num(row.factor, &ev.Factor) && kind != ThrottleReset {
		return Event{}, fmt.Errorf("fault: %s in %q needs %s=", kind, s, row.factor)
	}
	if kind == Join {
		n := workload.Noise{Name: ev.Target, Jitter: 0.08}
		var sizeMB float64
		if !num("period", &n.Period) || !num("mb", &sizeMB) {
			return Event{}, fmt.Errorf("fault: join in %q needs period= and mb=", s)
		}
		n.CheckpointBytes = sizeMB * mb
		num("phase", &n.Phase)
		num("jitter", &n.Jitter)
		if v, ok := kv["seed"]; ok {
			delete(kv, "seed")
			var err error
			if n.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return Event{}, fmt.Errorf("fault: bad seed in %q: %v", s, err)
			}
		} else {
			// Deterministic default: derived from the name so the same
			// spec always drives the same jitter stream.
			n.Seed = int64(7000 + len(n.Name)*131 + int(n.Period))
		}
		ev.Noise = n
	}
	if bad != nil {
		return Event{}, bad
	}
	if len(kv) > 0 {
		var extra []string
		for k := range kv {
			extra = append(extra, k)
		}
		// Sorted for a deterministic message.
		slices.Sort(extra)
		return Event{}, fmt.Errorf("fault: unknown params %v in %q", extra, s)
	}
	return ev, nil
}

func allKindNames() string {
	var names []string
	for _, r := range kinds {
		names = append(names, r.name)
	}
	return strings.Join(names, "|")
}

// GenerateOptions parameterizes Generate.
type GenerateOptions struct {
	// Horizon scales the plan: faults land in [0.1, 0.85]·Horizon and
	// windowed ones last 2–8 % of it, so a short run draws faults too
	// brief for a recovery step to follow (unpaired). Required.
	Horizon float64
	// Device is the device faults target (required for device kinds).
	Device string
	// Cgroup is the cgroup faults target (required for cgroup kinds).
	Cgroup string
	// Interferers are existing interferer names eligible for Leave and
	// PeriodChange churn (none = no such events).
	Interferers []string
	// Events is the number of faults to draw (default 6).
	Events int
}

// Generate draws a seed-deterministic random plan: same (seed, opts) ⇒
// identical plan. It cycles through the fault kinds applicable to the
// given targets so every class appears before any repeats.
func Generate(seed int64, opts GenerateOptions) (*Plan, error) {
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("fault: Generate needs a positive horizon")
	}
	if opts.Events == 0 {
		opts.Events = 6
	}
	var kinds []Kind
	if opts.Device != "" {
		kinds = append(kinds, BWCollapse, LatencySpike, ReadError, Stuck)
	}
	if opts.Cgroup != "" {
		kinds = append(kinds, WeightFail, ThrottleReset)
	}
	if opts.Device != "" {
		kinds = append(kinds, Join)
	}
	if len(opts.Interferers) > 0 {
		kinds = append(kinds, Leave, PeriodChange)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("fault: Generate needs at least one of Device, Cgroup, Interferers")
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	joined := 0
	for i := 0; i < opts.Events; i++ {
		k := kinds[i%len(kinds)]
		at := opts.Horizon * (0.1 + 0.75*rng.Float64())
		dur := opts.Horizon * (0.02 + 0.06*rng.Float64())
		ev := Event{At: at, Kind: k, Duration: dur}
		switch k {
		case BWCollapse:
			ev.Target = opts.Device
			ev.Factor = 0.1 + 0.4*rng.Float64()
		case LatencySpike:
			ev.Target = opts.Device
			ev.Factor = 0.02 + 0.08*rng.Float64()
		case ReadError, Stuck:
			ev.Target = opts.Device
			if k == Stuck {
				ev.Duration = min(ev.Duration, 30)
			}
		case WeightFail:
			ev.Target = opts.Cgroup
		case ThrottleReset:
			ev.Target = opts.Cgroup
			ev.Factor = 20 + 40*rng.Float64()
		case Join:
			joined++
			name := fmt.Sprintf("chaos%d", joined)
			ev.Target = name
			ev.Duration = 0
			ev.Noise = workload.Noise{
				Name:            name,
				Period:          60 + 120*rng.Float64(),
				CheckpointBytes: (256 + 512*rng.Float64()) * mb,
				Jitter:          0.08,
				Seed:            seed + int64(1000+joined),
			}
		case Leave, PeriodChange:
			ev.Target = opts.Interferers[rng.Intn(len(opts.Interferers))]
			ev.Duration = 0
			if k == PeriodChange {
				ev.Factor = 45 + 90*rng.Float64()
			}
		}
		p.Events = append(p.Events, ev)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
