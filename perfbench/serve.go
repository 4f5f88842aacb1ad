package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/obs"
	"gfmap/internal/server"
)

// Shares of serve-mixed's measured time, and of its open-loop requests.
const (
	sharePasses  = 0.2 // closed-loop passes over the fixed request set
	shareNominal = 0.3 // open loop at the nominal rate
	// The rest goes to the max_rps ladder.

	freshWarmup = 20 // fresh designs mapped during warm-up

	// maxBacklogGrowth is the steepest rise of /map latency over a ladder
	// rung (seconds of latency per second of the rung) that still counts
	// as a steady backlog. Offered load a fraction x above what the server
	// completes makes latency rise at x seconds per second, so a rung more
	// than 2% over capacity fails.
	maxBacklogGrowth = 0.02

	// nominalRate is the open loop's offered load, requests/s: about a
	// third of the max_rps this benchmark measured when it was defined
	// (268 to 326/s on a 2-vCPU host), so the server is far from
	// saturation. It stays fixed so that a parent and a change are offered
	// the same load.
	nominalRate = 100
)

// served is one request's outcome.
type served struct {
	in          input
	sched, sent time.Time
	done        time.Time
	status      int
	body        []byte
	err         error
	ladder      bool // sent by a max_rps ladder rung
}

func (s *served) latency() time.Duration { return s.done.Sub(s.sched) }

// serveRun is an in-process asyncmapd on loopback plus its client.
type serveRun struct {
	cfg    runConfig
	base   string
	client *http.Client
	store  *mapstore.Store
	hs     *http.Server
	dir    string
	fixed  []input
	rng    *rand.Rand
	fresh  int                // fresh designs generated so far
	decks  map[string][]input // undealt requests of each kind, see pick
	all    []*served
}

// startServer builds the service the way asyncmapd -store does: server.New
// with its defaults, LSI9K and Actel preloaded, a mapstore in a temp dir.
// Set-up (a fresh library build and annotation of both libraries plus
// server.New) is repeated as repeatSetup says; the last server is kept.
func startServer(cfg runConfig) (*serveRun, []float64, []float64, error) {
	for _, name := range serveLibs {
		if _, err := library.Get(name); err != nil { // the process-wide copies server.New uses
			return nil, nil, nil, err
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, nil, nil, err
	}
	var setup, annotate []float64
	var srv *server.Server
	var st *mapstore.Store
	var dir string
	err := repeatSetup(func() error {
		if st != nil {
			st.Close()
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		var ann time.Duration
		for _, name := range serveLibs {
			_, _, a, err := buildLibrary(name)
			if err != nil {
				return err
			}
			ann += a
		}
		d, err := os.MkdirTemp(".bench_build", "serve-")
		if err != nil {
			return err
		}
		dir = d
		if st, err = mapstore.Open(filepath.Join(dir, "store.log"), mapstore.Options{}); err != nil {
			return err
		}
		if srv, err = server.New(server.Config{Libraries: serveLibs, Store: st, AccessLog: io.Discard}); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		annotate = append(annotate, ann.Seconds())
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	s := &serveRun{
		cfg:  cfg,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
		store: st,
		hs:    &http.Server{Handler: srv.Handler()},
		dir:   dir,
		rng:   rand.New(rand.NewSource(cfg.seed)),
	}
	go s.hs.Serve(ln)
	return s, setup, annotate, nil
}

func (s *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.client.CloseIdleConnections()
	s.store.Close()
	os.RemoveAll(s.dir)
}

// send posts one design or spec and reads the whole response.
func (s *serveRun) send(r *served) {
	q := url.Values{"library": {r.in.Lib}}
	path := "/synth"
	if r.in.Format == "spec" {
		q.Set("seed", "1")
	} else {
		path = "/map"
		q.Set("format", r.in.Format)
		q.Set("name", r.in.Name)
		q.Set("mode", "async")
	}
	r.sent = time.Now()
	resp, err := s.client.Post(s.base+path+"?"+q.Encode(), "text/plain", strings.NewReader(r.in.Text))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.done = time.Now()
}

// mixBlock fixes the open-loop request mix: every block of ten requests
// holds five /map store reads (a small paper design as BLIF), three /map
// store writes (a fresh generated design as eqn) and two /synth requests,
// in a seeded order. Fixed proportions keep the offered work per request
// the same from seed to seed.
var mixBlock = []string{"blif", "blif", "blif", "blif", "blif", "eqn", "eqn", "eqn", "spec", "spec"}

// nextKinds returns the request kinds of the next mix block.
func (s *serveRun) nextKinds() []string {
	kinds := append([]string(nil), mixBlock...)
	s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// pick draws the next request of the given kind. Like the kinds, the
// requests of a kind are dealt from a seeded shuffled deck of every fixed
// request of that format on every library (for fresh designs, of the
// libraries), so any stretch of the schedule holds each of them about
// equally often: /synth costs differ by more than ten times from spec to
// spec, and independent draws would change a rung's offered work from
// seed to seed.
func (s *serveRun) pick(kind string) input {
	if s.decks == nil {
		s.decks = map[string][]input{}
	}
	deck := s.decks[kind]
	if len(deck) == 0 {
		for _, in := range s.fixed {
			if in.Format == kind {
				deck = append(deck, in)
			}
		}
		if kind == "eqn" {
			for _, lib := range serveLibs {
				deck = append(deck, input{Lib: lib})
			}
		}
		deck = shuffled(s.rng, deck)
	}
	in := deck[0]
	s.decks[kind] = deck[1:]
	if kind == "eqn" {
		s.fresh++
		return freshDesign(uint64(s.cfg.seed), s.fresh, in.Lib)
	}
	return in
}

// schedule lays out an open loop's arrivals at rate per second over dur:
// seeded Poisson arrivals, or evenly spaced ones.
func (s *serveRun) schedule(rate float64, dur time.Duration, poisson bool) (at []time.Duration, reqs []input) {
	var kinds []string
	for t := time.Duration(0); ; {
		gap := 1 / rate
		if poisson {
			gap = s.rng.ExpFloat64() / rate
		}
		t += time.Duration(gap * float64(time.Second))
		if t >= dur {
			return at, reqs
		}
		if len(kinds) == 0 {
			kinds = s.nextKinds()
		}
		at = append(at, t)
		reqs = append(reqs, s.pick(kinds[0]))
		kinds = kinds[1:]
	}
}

// openLoop sends a schedule's requests on time, each on its own goroutine,
// over no more connections than CPUs, and times each from its scheduled
// send time. It stops sending when more than maxOut requests are
// outstanding and reports whether it did.
func (s *serveRun) openLoop(at []time.Duration, ins []input, maxOut int64, ladder bool) (reqs []*served, late []float64, stopped bool) {
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	for i, in := range ins {
		due := start.Add(at[i])
		time.Sleep(time.Until(due))
		if outstanding.Load() > maxOut {
			stopped = true
			break
		}
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		r := &served{in: in, sched: due, ladder: ladder}
		reqs = append(reqs, r)
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.send(r)
			outstanding.Add(-1)
		}()
	}
	wg.Wait()
	s.all = append(s.all, reqs...)
	return reqs, late, stopped
}

// mapLatencies returns the /map and /synth latencies in ms; a failed or
// refused request counts as an infinite latency.
func mapLatencies(reqs []*served) (mapMS, synthMS []float64) {
	for _, r := range reqs {
		ms := float64(r.latency()) / float64(time.Millisecond)
		if r.err != nil || r.status != http.StatusOK {
			ms = math.Inf(1)
		}
		if r.in.Format == "spec" {
			synthMS = append(synthMS, ms)
		} else {
			mapMS = append(mapMS, ms)
		}
	}
	return mapMS, synthMS
}

// probe runs one ladder rung with evenly spaced arrivals, so the verdict
// reflects the rate rather than arrival bursts. The rung passes when the
// /map tail latency meets the limit and the backlog did not grow. A rung
// starts with an empty queue, so a rate just above capacity needs longer
// than a rung lasts to push the tail past the limit; the backlog test
// reads the trend instead: the least-squares slope of /map latency
// against scheduled send time must stay under maxBacklogGrowth. A backlog
// far past the limit stops the rung early.
func (s *serveRun) probe(rate float64, dur time.Duration) bool {
	at, ins := s.schedule(rate, dur, false)
	maxOut := int64(4*runtime.NumCPU()) + int64(4*rate*s.cfg.tailLimitMS/1000)
	reqs, _, stopped := s.openLoop(at, ins, maxOut, true)
	mapMS, _ := mapLatencies(reqs)
	t, p := tail(mapMS)
	var due, lat []float64 // answered /map requests, in schedule order
	for _, r := range reqs {
		if r.in.Format != "spec" && r.err == nil && r.status == http.StatusOK {
			due = append(due, r.sched.Sub(reqs[0].sched).Seconds())
			lat = append(lat, r.latency().Seconds())
		}
	}
	growth := slope(due, lat)
	growing := stopped || growth > maxBacklogGrowth
	ok := !growing && t <= s.cfg.tailLimitMS
	fmt.Fprintf(os.Stderr, "perfbench: max_rps rung %.2f/s: /map tail p%g %.1f ms of n=%d, latency growth %.1f ms/s, backlog growing %t, pass %t\n",
		rate, p, t, len(mapMS), growth*1000, growing, ok)
	return ok
}

// maxRPS bisects the fixed ladder for the highest rung that passes,
// sharing the budget among the probes a bisection needs.
func (s *serveRun) maxRPS(budget time.Duration) float64 {
	lo, hi := -1, len(s.cfg.ladder)
	probes := math.Ceil(math.Log2(float64(len(s.cfg.ladder) + 1)))
	dur := time.Duration(float64(budget) / probes)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.probe(s.cfg.ladder[mid], dur) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return s.cfg.ladder[lo]
}

// closedPass sends every fixed request once, one at a time.
func (s *serveRun) closedPass(order []input) (wall time.Duration, allocB, mallocs uint64, gcPause time.Duration, reqs []*served) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, in := range order {
		r := &served{in: in, sched: time.Now()}
		s.send(r)
		reqs = append(reqs, r)
	}
	wall = time.Since(t0)
	s.all = append(s.all, reqs...)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs,
		time.Duration(after.PauseTotalNs - before.PauseTotalNs), reqs
}

func (s *serveRun) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverSample is the server-side state the benchmark reads around the
// nominal phase: /statusz stage sums, /metrics counters, store counters.
//
// The /statusz stages are rolling windows of six slots. A sample drops
// out only once the server has been up for a whole window, so two
// samples taken before that difference exactly; sample refuses to read
// the stages later than one slot before that point.
type serverSample struct {
	waitSum, reqSum float64 // ms
	waitN, reqN     uint64
	rejected        uint64
	timeouts        uint64
	store           mapstore.Stats
}

func (s *serveRun) sample(tr *tracer) (serverSample, error) {
	var out serverSample
	var st server.StatuszResponse
	t0 := time.Now()
	if err := s.getJSON("/statusz", &st); err != nil {
		return out, err
	}
	t1 := time.Now()
	var snap obs.Snapshot
	if err := s.getJSON("/metrics", &snap); err != nil {
		return out, err
	}
	t2 := time.Now()
	out.store = s.store.Stats()
	t3 := time.Now()
	tr.add("GET /statusz", "sample", 0, t0, t1)
	tr.add("GET /metrics", "sample", 0, t1, t2)
	tr.add("mapstore.Store.Stats", "sample", 0, t2, t3)
	if st.UptimeSeconds >= st.WindowSeconds*5/6 {
		return out, fmt.Errorf("/statusz window of %.0f s began rolling (uptime %.1f s): run with fewer --seconds", st.WindowSeconds, st.UptimeSeconds)
	}
	w, r := st.Stages["queue_wait"], st.Stages["request"]
	out.waitSum, out.waitN = w.MeanMS*float64(w.Count), w.Count
	out.reqSum, out.reqN = r.MeanMS*float64(r.Count), r.Count
	out.rejected = snap.Counters[server.MetricRejected]
	out.timeouts = snap.Counters[server.MetricTimeouts]
	return out, nil
}

// runServe runs serve-mixed: set-up, a warm-up that fills the store and
// the hazard cache, closed-loop passes over the fixed request set, the
// open loop at the nominal rate and (untraced) the max_rps ladder; then
// every response is checked.
func runServe(cfg runConfig) (*report, error) {
	c, err := newChecker(cfg.record)
	if err != nil {
		return nil, err
	}
	s, setup, annotate, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if s.fixed, err = serveFixed(); err != nil {
		return nil, err
	}

	warm := append([]input(nil), s.fixed...)
	for i := 0; i < freshWarmup; i++ {
		s.fresh++
		warm = append(warm, freshDesign(uint64(cfg.seed), s.fresh, serveLibs[i%len(serveLibs)]))
	}
	s.closedPass(warm)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := newReport(c)
	var walls, allocs, tracedWalls, mallocs, gcPause []float64
	var tracedReqs [][]*served
	passEnd := time.Now().Add(time.Duration(float64(cfg.seconds) * sharePasses))
	for i := 0; time.Now().Before(passEnd) || len(walls) == 0 || (cfg.trace && len(tracedWalls) == 0); i++ {
		wall, a, m, gc, reqs := s.closedPass(shuffled(s.rng, s.fixed))
		if cfg.trace && i%2 == 1 {
			if err := reconcileServed(reqs, wall); err != nil {
				return nil, fmt.Errorf("layer rows do not reconcile in pass %d: %w", i, err)
			}
			traceRequests(tr, reqs, fmt.Sprintf("pass%d", i))
			tracedWalls = append(tracedWalls, wall.Seconds())
			tracedReqs = append(tracedReqs, reqs)
			mallocs = append(mallocs, float64(m))
			gcPause = append(gcPause, float64(gc)/float64(time.Millisecond))
			continue
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(a)/1e6)
	}
	rep.passes = len(walls) + len(tracedWalls)

	before, err := s.sample(tr)
	if err != nil {
		return nil, err
	}
	at, ins := s.schedule(nominalRate, time.Duration(float64(cfg.seconds)*shareNominal), true)
	nominal, late, _ := s.openLoop(at, ins, math.MaxInt64, false)
	after, err := s.sample(tr)
	if err != nil {
		return nil, err
	}
	maxRPS := 0.0
	if !cfg.trace {
		maxRPS = s.maxRPS(time.Duration(float64(cfg.seconds) * (1 - sharePasses - shareNominal)))
	}
	if refused := s.check(c); refused > 0 {
		rep.note("%d max_rps ladder requests were refused or timed out (overload, not failures)", refused)
	}

	mapMS, synthMS := mapLatencies(nominal)
	lateTail, latePct := tail(late)
	rep.note("gen.late_ms = %.3f ms (p%g of %d sends, max %.3f ms)", lateTail, latePct, len(late), percentile(late, 100))
	rep.setLatency("map", mapMS)
	rep.setLatency("synth", synthMS)
	if !cfg.trace {
		area, delay := fixedQoR(s.all)
		rep.set("setup_s", median(setup))
		rep.set("pass_s", median(walls))
		rep.set("alloc_mb", median(allocs))
		rep.set("area", area)
		rep.set("delay", delay)
		rep.set("max_rps", maxRPS)
		return rep, nil
	}

	if err := tr.write(cfg.tracePath()); err != nil {
		return nil, err
	}
	rep.set("library.annotate_s", median(annotate))
	rep.set("obs.trace_overhead_frac", ratio(median(tracedWalls), median(walls))-1)
	rep.set("runtime.allocs", median(mallocs))
	rep.set("runtime.gc_pause_ms", median(gcPause))
	rep.set("gen.late_ms", lateTail)
	if err := rep.serveLayers(tracedReqs, tr, nominal, before, after); err != nil {
		return nil, err
	}
	dcf, err := distinctConeFrac(fixedMapInputs(s.fixed))
	if err != nil {
		return nil, err
	}
	rep.set("core.distinct_cone_frac", dcf)
	return rep, nil
}

// fixedMapInputs are the fixed request set's /map designs.
func fixedMapInputs(fixed []input) []input {
	var out []input
	for _, in := range fixed {
		if in.Format != "spec" {
			out = append(out, in)
		}
	}
	return out
}

// traceRequests records each closed-loop request as a span with the
// server's own phase breakdown (from the response) laid out under it.
func traceRequests(tr *tracer, reqs []*served, pass string) {
	for i, r := range reqs {
		ref := fmt.Sprintf("%s/%d/%s/%s", pass, i, r.in.Lib, r.in.Name)
		name := "POST /map"
		if r.in.Format == "spec" {
			name = "POST /synth"
		}
		id := tr.add(name, ref, 0, r.sent, r.done)
		d, err := decode(r)
		if err != nil {
			continue
		}
		ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
		if d.s != nil {
			st := d.s.Stats
			tr.addPhases(id, ref, r.sent,
				[]string{"bmspec.Synthesize", "network.decompose", "network.partition", "core.cover", "core.emit", "synth.Simulate"},
				[]time.Duration{ms(d.s.SynthesizeMS), st.DecomposeTime, st.PartitionTime, st.CoverTime, st.EmitTime, ms(d.s.SimulateMS)})
			continue
		}
		st := d.m.Stats
		tr.addPhases(id, ref, r.sent,
			[]string{"network.decompose", "network.partition", "core.cover", "core.emit"},
			[]time.Duration{st.DecomposeTime, st.PartitionTime, st.CoverTime, st.EmitTime})
	}
}

// serveLayers fills serve-mixed's per-layer metrics: per closed-loop pass
// sums from the responses' Stats and phase times, and the server-side
// deltas over the nominal open loop.
func (r *report) serveLayers(passes [][]*served, tr *tracer, nominal []*served, before, after serverSample) error {
	n := float64(len(passes))
	self := tr.selfTimes()
	perPass := func(name string) float64 { return self[name].Seconds() / n }
	r.set("network.decompose_s", perPass("network.decompose"))
	r.set("network.partition_s", perPass("network.partition"))
	r.set("core.cover_s", perPass("core.cover"))
	r.set("core.emit_s", perPass("core.emit"))
	r.set("bmspec.synthesize_s", perPass("bmspec.Synthesize"))
	r.set("dsim.simulate_s", perPass("synth.Simulate"))

	var mapS, runS []float64
	var st core.Stats
	var transitions int
	front := map[string][]float64{}
	size := map[string]float64{}
	for i, reqs := range passes {
		var m, sy float64
		for _, q := range reqs {
			d, err := decode(q)
			if err != nil {
				return err
			}
			if d.s != nil {
				m += d.s.MapMS / 1e3
				sy += d.s.ElapsedMS / 1e3
				if i == 0 {
					addStats(&st, d.s.Stats)
					transitions += len(d.s.Evidence.Transitions)
				}
				continue
			}
			m += d.m.ElapsedMS / 1e3
			if i == 0 {
				addStats(&st, d.m.Stats)
			}
			k := q.in.Key
			size[k] = float64(len(q.in.Text))
			front[k] = append(front[k], (d.m.Stats.DecomposeTime + d.m.Stats.PartitionTime).Seconds())
		}
		mapS = append(mapS, m)
		runS = append(runS, sy)
	}
	r.set("core.map_s", median(mapS))
	r.set("synth.run_s", median(runS))
	r.set("dsim.transitions", float64(transitions))
	r.statsLayers(st)
	var xs, ys []float64
	for k, f := range front {
		xs = append(xs, size[k])
		ys = append(ys, median(f))
	}
	r.set("network.frontend_slope", logSlope(xs, ys))

	hits := float64(after.store.Hits + after.store.DiskHits - before.store.Hits - before.store.DiskHits)
	misses := float64(after.store.Misses - before.store.Misses)
	r.set("mapstore.hit_ratio", ratio(hits, hits+misses))
	r.set("mapstore.puts", float64(after.store.Puts-before.store.Puts))
	waitMS := ratio(after.waitSum-before.waitSum, float64(after.waitN-before.waitN))
	reqMS := ratio(after.reqSum-before.reqSum, float64(after.reqN-before.reqN))
	r.set("server.queue_wait_ms", waitMS)
	r.set("server.request_ms", reqMS)
	var client []float64
	for _, q := range nominal {
		client = append(client, float64(q.done.Sub(q.sent))/float64(time.Millisecond))
	}
	r.set("server.transport_ms", mean(client)-reqMS)
	r.set("server.rejected", float64(after.rejected-before.rejected))
	r.set("server.timeouts", float64(after.timeouts-before.timeouts))
	return nil
}
