package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
)

// repeatSetup runs a set-up step at least five times and for at least a
// second, so the reported set-up time is a median of many repetitions.
func repeatSetup(step func() error) error {
	start := time.Now()
	for i := 0; i < 5 || time.Since(start) < time.Second; i++ {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// mapped is one design's outcome inside a pass.
type mapped struct {
	in       input
	net      *network.Network
	res      *core.Result // dropped once the pass is checked
	stats    core.Stats
	err      error
	mapTime  time.Duration
	latency  time.Duration // parse + map, from the call's start
	frontEnd time.Duration // decompose + partition
}

// passResult is one closed-loop pass over a batch corpus.
type passResult struct {
	wall    time.Duration
	allocB  uint64
	mallocs uint64
	gcPause time.Duration
	designs []mapped
}

// buildLibrary times one library build plus hazard annotation, the
// asynchronous mapper's set-up cost, and the annotation alone.
func buildLibrary(name string) (*library.Library, time.Duration, time.Duration, error) {
	t0 := time.Now()
	lib, err := library.Build(name)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err := lib.Annotate(); err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	return lib, t2.Sub(t0), t2.Sub(t1), nil
}

// runPass parses and maps every design in order, one after the other, as a
// single closed-loop caller. With a tracer it records a span per design,
// per eqn.Parse and per core.Map call, plus the phase spans core.Map
// reports in its Stats.
func runPass(order []input, lib *library.Library, tr *tracer, passID int) passResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := make([]mapped, len(order))
	passStart := time.Now()
	for i, in := range order {
		t0 := time.Now()
		net, err := eqn.Parse(strings.NewReader(in.Text), in.Name)
		t1 := time.Now()
		var res *core.Result
		if err == nil {
			res, err = core.Map(net, lib, core.Options{Mode: core.Async})
		}
		t2 := time.Now()
		out[i] = mapped{in: in, net: net, res: res, err: err, mapTime: t2.Sub(t1), latency: t2.Sub(t0)}
		if res != nil {
			out[i].stats = res.Stats
			out[i].frontEnd = res.Stats.DecomposeTime + res.Stats.PartitionTime
		}
		if tr != nil {
			ref := fmt.Sprintf("pass%d/%s", passID, in.Name)
			d := tr.add("design", ref, 0, t0, t2)
			tr.add("eqn.Parse", ref, d, t0, t1)
			m := tr.add("core.Map", ref, d, t1, t2)
			if res != nil {
				st := res.Stats
				tr.addPhases(m, ref, t1,
					[]string{"network.decompose", "network.partition", "core.cover", "core.emit"},
					[]time.Duration{st.DecomposeTime, st.PartitionTime, st.CoverTime, st.EmitTime})
			}
		}
	}
	wall := time.Since(passStart)
	runtime.ReadMemStats(&after)
	return passResult{
		wall:    wall,
		allocB:  after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		designs: out,
	}
}

// checkPass checks every design of a pass, outside the timed region, then
// drops the networks and netlists so the live heap does not grow from
// pass to pass.
func checkPass(c *checker, p passResult) {
	for i, m := range p.designs {
		c.attempted++
		if m.err != nil {
			c.fail("%s on %s: %v", m.in.Name, m.in.Lib, m.err)
			continue
		}
		c.checkMapped(m.in, m.net, m.res.Netlist)
		p.designs[i].net, p.designs[i].res = nil, nil
	}
}

// reconcile checks that a traced pass's layer rows add up: per design,
// decompose + partition + cover + emit <= the core.Map call, and summed
// over the pass, core.Map <= the pass's wall time.
func reconcile(p passResult) error {
	var mapSum time.Duration
	for _, m := range p.designs {
		if m.err != nil {
			continue
		}
		st := m.stats
		phases := st.DecomposeTime + st.PartitionTime + st.CoverTime + st.EmitTime
		if phases > m.mapTime {
			return fmt.Errorf("%s: decompose+partition+cover+emit %v > core.Map %v", m.in.Name, phases, m.mapTime)
		}
		mapSum += m.mapTime
	}
	if mapSum > p.wall {
		return fmt.Errorf("core.Map total %v > pass wall %v", mapSum, p.wall)
	}
	return nil
}

// runBatch runs a batch workload: set-up, an untimed warm-up pass that
// fills the hazard cache, then closed-loop passes for the given duration.
// Untraced runs time every pass; traced runs alternate untraced and
// traced passes, so the trace overhead is measured in the same run.
func runBatch(cfg runConfig, lib string, corpus func(string) ([]input, error)) (*report, error) {
	c, err := newChecker(cfg.record)
	if err != nil {
		return nil, err
	}
	var setup, annotate []float64
	var l *library.Library
	err = repeatSetup(func() error {
		lb, total, ann, err := buildLibrary(lib)
		l = lb
		setup = append(setup, total.Seconds())
		annotate = append(annotate, ann.Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	inputs, err := corpus(lib)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	warm := runPass(shuffled(rng, inputs), l, nil, 0)
	var area, delay float64
	for _, m := range warm.designs {
		if m.res != nil {
			area += m.res.Area
			delay += m.res.Delay
		}
	}
	checkPass(c, warm)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []passResult
	deadline := time.Now().Add(cfg.seconds)
	for i := 1; time.Now().Before(deadline) || len(plain) == 0 || (cfg.trace && len(traced) == 0); i++ {
		order := shuffled(rng, inputs)
		// Every pass starts from a collected heap, so no pass pays for
		// garbage the one before it left.
		runtime.GC()
		if cfg.trace && i%2 == 0 {
			p := runPass(order, l, tr, i)
			if err := reconcile(p); err != nil {
				return nil, fmt.Errorf("layer rows do not reconcile in pass %d: %w", i, err)
			}
			traced = append(traced, p)
			checkPass(c, p)
			continue
		}
		p := runPass(order, l, nil, i)
		plain = append(plain, p)
		checkPass(c, p)
	}

	rep := newReport(c)
	rep.passes = len(plain) + len(traced)
	var walls, allocs, lat []float64
	byDesign := map[string][]float64{}
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.allocB)/1e6)
		for _, m := range p.designs {
			ms := float64(m.latency) / float64(time.Millisecond)
			lat = append(lat, ms)
			byDesign[m.in.Name] = append(byDesign[m.in.Name], ms)
		}
	}
	// map_p50_ms is the median over designs of each design's median
	// latency. The pooled median would hinge on which design's samples
	// straddle the middle rank: on scale-lsi9k's four designs it is the
	// slowest of the 2x samples.
	var perDesign []float64
	for _, xs := range byDesign {
		perDesign = append(perDesign, median(xs))
	}
	t, pct := tail(lat)
	rep.set("map_p50_ms", median(perDesign))
	rep.set("map_tail_ms", t)
	rep.note("map_p50_ms = %.3f ms (median of %d designs' medians), map_tail_ms = %.3f ms (p%g of n=%d)",
		median(perDesign), len(perDesign), t, pct, len(lat))
	if !cfg.trace {
		pass := median(walls)
		rep.note("pass_s = %.4f s (median of %d passes, range %.4f to %.4f s)", pass, len(walls), percentile(walls, 0), percentile(walls, 100))
		rep.set("setup_s", median(setup))
		rep.set("pass_s", pass)
		rep.set("alloc_mb", median(allocs))
		rep.set("area", area)
		rep.set("delay", delay)
		rep.set("max_rps", ratio(float64(len(inputs)), pass))
		return rep, nil
	}

	if err := tr.write(cfg.tracePath()); err != nil {
		return nil, err
	}
	rep.set("library.annotate_s", median(annotate))
	rep.set("obs.trace_overhead_frac", ratio(medianWall(traced), median(walls))-1)
	rep.batchLayers(traced, tr)
	dcf, err := distinctConeFrac(inputs)
	if err != nil {
		return nil, err
	}
	rep.set("core.distinct_cone_frac", dcf)
	return rep, nil
}

// medianWall is the median wall time of passes, in seconds.
func medianWall(ps []passResult) float64 {
	var w []float64
	for _, p := range ps {
		w = append(w, p.wall.Seconds())
	}
	return median(w)
}

// batchLayers fills the per-layer metrics from the traced passes. Layer
// times are span self times averaged per pass; core.map_s and the runtime
// rows are per-pass medians; work counters are per pass (identical in
// every pass).
func (r *report) batchLayers(traced []passResult, tr *tracer) {
	n := float64(len(traced))
	self := tr.selfTimes()
	perPass := func(name string) float64 { return self[name].Seconds() / n }
	var mapS, runAllocs, gcPause []float64
	for _, p := range traced {
		var s float64
		for _, m := range p.designs {
			s += m.mapTime.Seconds()
		}
		mapS = append(mapS, s)
		runAllocs = append(runAllocs, float64(p.mallocs))
		gcPause = append(gcPause, float64(p.gcPause)/float64(time.Millisecond))
	}
	r.set("eqn.parse_s", perPass("eqn.Parse"))
	r.set("network.decompose_s", perPass("network.decompose"))
	r.set("network.partition_s", perPass("network.partition"))
	r.set("core.cover_s", perPass("core.cover"))
	r.set("core.emit_s", perPass("core.emit"))
	r.set("core.map_s", median(mapS))
	r.set("runtime.allocs", median(runAllocs))
	r.set("runtime.gc_pause_ms", median(gcPause))

	// Per-design front-end time (median over traced passes) against input
	// size gives the front-end's growth exponent.
	front := map[string][]float64{}
	size := map[string]float64{}
	var st core.Stats
	for _, m := range traced[0].designs {
		size[m.in.Name] = float64(len(m.in.Text))
		addStats(&st, m.stats)
	}
	for _, p := range traced {
		for _, m := range p.designs {
			front[m.in.Name] = append(front[m.in.Name], m.frontEnd.Seconds())
		}
	}
	var xs, ys []float64
	for name, f := range front {
		xs = append(xs, size[name])
		ys = append(ys, median(f))
	}
	r.set("network.frontend_slope", logSlope(xs, ys))
	r.statsLayers(st)
}

// addStats sums the work counters of one mapping into a pass total.
func addStats(dst *core.Stats, s core.Stats) {
	dst.Cones += s.Cones
	dst.ClustersEnumerated += s.ClustersEnumerated
	dst.CutTruncations += s.CutTruncations
	dst.FindInvocations += s.FindInvocations
	dst.IndexProbes += s.IndexProbes
	dst.SymmetryPruned += s.SymmetryPruned
	dst.HazardChecks += s.HazardChecks
	dst.MatchesRejected += s.MatchesRejected
	dst.HazCacheLocalHits += s.HazCacheLocalHits
	dst.HazCacheHits += s.HazCacheHits
	dst.HazCacheMisses += s.HazCacheMisses
}

// statsLayers reports a pass's summed work counters.
func (r *report) statsLayers(st core.Stats) {
	r.set("core.cones", float64(st.Cones))
	r.set("core.clusters_enumerated", float64(st.ClustersEnumerated))
	r.set("core.cut_truncations", float64(st.CutTruncations))
	r.set("match.find_calls", float64(st.FindInvocations))
	r.set("match.index_probes", float64(st.IndexProbes))
	r.set("match.symmetry_pruned", float64(st.SymmetryPruned))
	r.set("hazard.checks", float64(st.HazardChecks))
	r.set("hazard.rejected", float64(st.MatchesRejected))
	r.set("hazard.accept_ratio", ratio(float64(st.HazardChecks-st.MatchesRejected), float64(st.HazardChecks)))
	r.set("hazcache.hit_ratio", st.HazCacheHitRate())
}

// distinctConeFrac is the share of cones with a distinct canonical cone
// key (mapstore.ConeKey) across the corpus: the share of cover work a
// per-class dedup could not skip.
func distinctConeFrac(inputs []input) (float64, error) {
	keys := map[string]bool{}
	cones := 0
	for _, in := range inputs {
		net, err := sourceNetwork(in)
		if err != nil {
			return 0, err
		}
		dec, err := network.AsyncTechDecomp(net)
		if err != nil {
			return 0, err
		}
		cs, err := network.Partition(dec)
		if err != nil {
			return 0, err
		}
		for _, cone := range cs {
			keys[mapstore.ConeKey(cone.Expr)] = true
		}
		cones += len(cs)
	}
	return ratio(float64(len(keys)), float64(cones)), nil
}
