package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
)

// prefetch evaluates the predictive fast-tier cache (internal/cache):
// each application runs CrossLayer with and without the cache+prefetcher
// against the same interference, reporting mean per-step I/O time, the
// foreground capacity-tier bandwidth (which the background prefetch flow
// must not degrade), cache hit ratio, bytes served from the fast tier,
// staged volume, prescribed-bound violations (always 0), and the
// prefetcher's pause/skip decisions.
func prefetch(cfg Config) *Result {
	r := &Result{
		ID:    "prefetch",
		Title: "Predictive fast-tier cache + idle-window prefetcher",
		Header: []string{"app", "policy", "mean I/O (s)", "fg BW MB/s", "hit %", "saved MB",
			"staged MB", "bound viol", "paused", "ticks"},
	}
	const bound = 1e-2
	// Each run is independent (own scenario); the per-app note needs both
	// policies' foreground bandwidth, so jobs return row + fgBW.
	type run struct {
		app analytics.App
		pol core.Policy
	}
	type polRes struct {
		row  []string
		fgBW float64
	}
	var runs []run
	for _, app := range appsUnderTest() {
		runs = append(runs, run{app, core.CrossLayer}, run{app, core.CrossLayerPrefetch})
	}
	res := fanOut("prefetch", runs, func(v run) polRes {
		h := appHierarchy(v.app, cfg, defaultOpts())
		sc := core.Config{
			Policy: v.pol, ErrorControl: true, Bound: bound, Priority: 10,
		}
		sess := runOne(v.app.Name, 3, h, cfg, sc)
		sum := sess.Summary(cfg.SkipWarmup)
		hits, misses := 0, 0
		var savedMB, slowSum float64
		steps := measured(sess, cfg.SkipWarmup)
		for _, st := range steps {
			hits += st.CacheHits
			misses += st.CacheMisses
			savedMB += float64(st.CacheHitBytes / (1024 * 1024))
			slowSum += st.SlowBW
		}
		// Foreground capacity-tier bandwidth: the default-share probe
		// sample, measured on the HDD each step. This is the quantity
		// the background prefetch flow must not depress.
		var fg float64
		if len(steps) > 0 {
			fg = slowSum / float64(len(steps))
		}
		hitPct := "-"
		if hits+misses > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*float64(hits)/float64(hits+misses))
		}
		stagedMB, paused, ticks := "-", "-", "-"
		if c := sess.Cache(); c != nil {
			stagedMB = fmt.Sprintf("%.1f", c.Stats().StagedBytes/(1024*1024))
		}
		if pf := sess.Prefetcher(); pf != nil {
			ps := pf.Stats()
			paused = fmt.Sprintf("%d", ps.Paused+ps.Aborted)
			ticks = fmt.Sprintf("%d", ps.Ticks)
		}
		row := []string{v.app.Name, v.pol.String(), fmtS(sum.MeanIO), fmtMB(fg),
			hitPct, fmt.Sprintf("%.1f", savedMB), stagedMB,
			fmt.Sprintf("%d", boundViolations(steps, rung(h, bound))), paused, ticks}
		return polRes{row: row, fgBW: fg}
	})
	for i := 0; i < len(res); i += 2 {
		plain, pre := res[i], res[i+1]
		r.Add(plain.row...)
		r.Add(pre.row...)
		// The prefetch flow runs at the floor weight behind byte-rate
		// caps, so the foreground's measured capacity-tier share must not
		// drop when it is enabled.
		delta := 0.0
		if plain.fgBW > 0 {
			delta = 100 * (pre.fgBW - plain.fgBW) / plain.fgBW
		}
		r.Notef("%s: foreground capacity-tier BW %+.1f%% with prefetch enabled", runs[i].app.Name, delta)
	}
	r.Notef("Cache serves level prefixes from the fast tier; eviction keeps high reuse × refetch-cost runs, with prescribed-bound prefixes sticky.")
	return r
}
