package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tango/internal/fault"
	"tango/internal/objstore"
	"tango/internal/runpool"
	"tango/internal/sim"
)

// onePassPlace is place as it was before arrivals were counted first and
// bucketed per node: serially, in session order, each session attaches as
// soon as the heap picks its node, and every registry grows one session at
// a time.
func (c *Cluster) onePassPlace(list []*session) {
	if len(list) == 0 {
		return
	}
	nodeBW := c.obj.NodeBandwidth
	c.heap = slices.Grow(c.heap[:0], len(c.nodes))
	for _, nd := range c.nodes {
		if nd.alive {
			c.heap.push(nd.idx, nd.predictFrac(nodeBW)+nd.load)
		}
	}
	for _, s := range list {
		idx, score := c.heap.pop()
		s.nd = c.nodes[idx]
		s.nd.register(s)
		s.nd.sessions = append(s.nd.sessions, s)
		c.heap.push(idx, score+s.cost)
	}
	for _, nd := range c.nodes {
		slices.SortFunc(nd.sessions, byStep)
	}
}

// newOnePass is New with the arrivals placed by onePassPlace.
func newOnePass(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	obj := objstore.Default(cfg.Nodes)
	c := &Cluster{
		cfg: cfg, warm: min(2, cfg.Epochs-1), obj: obj, store: objstore.New(obj),
		killEpoch: -1, violByNode: make([]int, cfg.Nodes), epochMBps: make([]float64, 0, cfg.Epochs),
		planApplied: make([]bool, len(cfg.Plan.Events)),
	}
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = c.buildNode(i, true)
	}
	c.sess = genSessions(cfg.Sessions, cfg.Seed, obj.NodeBandwidth)
	c.onePassPlace(c.sess)
	return c
}

// placement renders where every session is and what its node's
// registries hold: the node, each node's session order and load bits, its
// allocator's list order with every entry's desired weight and grant, and
// the weight each cgroup holds.
func placement(c *Cluster) string {
	var b []byte
	for _, s := range c.sess {
		idx := -1
		if s.nd != nil {
			idx = s.nd.idx
		}
		b = fmt.Appendf(b, "%s@%d ", s.name, idx)
	}
	for _, nd := range c.nodes {
		b = fmt.Appendf(b, "\n%s alive=%t load=%x:", nd.name, nd.alive, nd.load)
		for _, s := range nd.sessions {
			b = fmt.Appendf(b, " %d", s.id)
		}
		b = append(b, " |"...)
		// The allocator's entries, read by reflection: coordinator keeps
		// its list to itself.
		list := reflect.ValueOf(nd.alloc).Elem().FieldByName("list")
		for i := 0; i < list.Len(); i++ {
			e := list.Index(i).Elem()
			name := e.FieldByName("name").String()
			b = fmt.Appendf(b, " %s=%d/%d/%t/w%d", name, e.FieldByName("desired").Int(), e.FieldByName("grant").Int(),
				e.FieldByName("active").Bool(), nd.cn.Cgroups().Lookup(name).Weight())
		}
	}
	return string(b)
}

// Bucketing a node's arrivals and registering them node by node, from
// parallel windows, changes nothing but where and when registries grow:
// over random fleet shapes, with nodes killed at barriers (their sessions
// placed cold), revived and settled, every session lands on the node the
// serial one-pass placement gave it, and every node's sessions, allocator
// order, desired weights and grants match, at runpool width 1 and 4 and at
// GOMAXPROCS 1 and 2.
func TestPlaceMatchesOnePass(t *testing.T) {
	defer runpool.SetWorkers(runpool.Workers())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// One rng across the settings: 80 distinct trials, the first 40 the
	// same shapes, seeds and kill draws as one 40-trial run would draw.
	rng := rand.New(rand.NewSource(11))
	trial := 0
	for _, at := range []struct{ procs, width int }{{1, 1}, {2, 4}, {1, 4}, {2, 1}} {
		runtime.GOMAXPROCS(at.procs)
		runpool.SetWorkers(at.width)
		for end := trial + 20; trial < end; trial++ {
			cfg := Config{
				Nodes: 1 + rng.Intn(24), Sessions: 1 + rng.Intn(400), Seed: rng.Int63n(1000) + 1,
				Epochs: 6, Plan: &fault.Plan{}, // a plan, so killed nodes revive
			}
			two, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			one := newOnePass(cfg)
			check := func(when string) {
				t.Helper()
				if got, want := placement(two), placement(one); got != want {
					t.Fatalf("GOMAXPROCS %d, width %d, trial %d %+v, %s:\nbucketed %s\none-pass %s",
						at.procs, at.width, trial, cfg, when, got, want)
				}
			}
			check("arrival")
			for e := 0; e < cfg.Epochs; e++ {
				t0 := float64(e) * epochSec
				for k := rng.Intn(3); k > 0 && two.aliveCount() > 1; k-- {
					idx := rng.Intn(cfg.Nodes)
					if !two.nodes[idx].alive {
						continue
					}
					until := t0 + float64(1+rng.Intn(3))*epochSec
					two.place(two.kill(two.nodes[idx], until), t0, "cold")
					// The orphans in session order, as a node in id order held them.
					orphans := one.kill(one.nodes[idx], until)
					one.onePassPlace(slices.SortedFunc(slices.Values(orphans), func(a, b *session) int { return a.id - b.id }))
					check(fmt.Sprintf("kill node%d at epoch %d", idx, e))
				}
				for _, c := range []*Cluster{two, one} {
					if err := c.epoch(e, (*node).scheduleSteps); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("epoch %d", e))
			}
			if got, want := exact(two.report()), exact(one.report()); got != want {
				t.Fatalf("GOMAXPROCS %d, width %d, trial %d: reports differ:\n%s\n%s", at.procs, at.width, trial, got, want)
			}
		}
	}
}

// An epoch submits one window task per worker, whatever the node count:
// once the estimators have fitted, an epoch with no step to run allocates
// no more on 96 nodes than on 4.
func TestEpochDoesNotGrowWithNodes(t *testing.T) {
	prev := runpool.Workers()
	defer runpool.SetWorkers(prev)
	idle := func(*node, *sim.Calendar, float64) {}
	for _, workers := range []int{1, 2} {
		runpool.SetWorkers(workers)
		var allocs []int
		for _, nodes := range []int{4, 96} {
			c, err := New(Config{Nodes: nodes, Sessions: 2 * nodes, Seed: 3, Epochs: 8})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 6; e++ { // an estimator fits at its fourth sample
				if err := c.epoch(e, idle); err != nil {
					t.Fatal(err)
				}
			}
			allocs = append(allocs, mallocs(func() {
				if err := c.epoch(6, idle); err != nil {
					t.Fatal(err)
				}
			}))
		}
		// The slack is for goroutines the pool starts (three objects per
		// node, 276 in all, before).
		if allocs[1] > allocs[0]+8 {
			t.Errorf("workers=%d: an epoch allocated %v objects on 4 and 96 nodes", workers, allocs)
		}
	}
}

// The placement heap pops the lowest score first and breaks ties by the
// lowest node index: random pushes (many tied scores) and pops interleaved
// match a sorted reference.
func TestPlacerPopsInScoreThenIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h placer
	for trial := 0; trial < 200; trial++ {
		h = h[:0]
		var ref []placed
		for op := 0; op < 60; op++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				p := placed{idx: rng.Intn(1000), score: float64(rng.Intn(4)) / 2}
				h.push(p.idx, p.score)
				ref = append(ref, p)
				continue
			}
			best := 0
			for i, p := range ref {
				if b := ref[best]; p.score < b.score || p.score == b.score && p.idx < b.idx {
					best = i
				}
			}
			want := ref[best]
			ref = append(ref[:best], ref[best+1:]...)
			if idx, score := h.pop(); idx != want.idx || score != want.score || len(h) != len(ref) {
				t.Fatalf("trial %d: pop = (%d, %g), want (%d, %g)", trial, idx, score, want.idx, want.score)
			}
		}
	}
}
