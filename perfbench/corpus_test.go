package main

import (
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
)

// The benchmark runs from the repository root (it reads BENCHMARK.json,
// examples/vme.bm and perfbench/digests.json from there).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func batchInputs(t *testing.T) []input {
	t.Helper()
	var all []input
	for _, build := range []func(string) ([]input, error){paperCorpus, scaleCorpus} {
		in, err := build("LSI9K")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, in...)
	}
	return all
}

// Every eqn input the program receives must survive a parse and re-write
// unchanged, so the text is exactly the network the corpus code made.
func TestInputsRoundTripThroughEqn(t *testing.T) {
	inputs := batchInputs(t)
	for i := 1; i <= 50; i++ {
		inputs = append(inputs, freshDesign(7, i, "LSI9K"))
	}
	for _, in := range inputs {
		net, err := eqn.ParseString(in.Text, in.Name)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if got := eqn.WriteString(net); got != in.Text {
			t.Errorf("%s: eqn text changes on a parse/write round trip", in.Name)
		}
	}
}

// The same seed must give the same inputs: the batch pass orders and
// serve-mixed's arrival schedule, request mix and fresh designs.
func TestSameSeedSameInputs(t *testing.T) {
	inputs := batchInputs(t)
	order := func(seed int64) [][]input {
		rng := rand.New(rand.NewSource(seed))
		return [][]input{shuffled(rng, inputs), shuffled(rng, inputs)}
	}
	if !reflect.DeepEqual(order(3), order(3)) {
		t.Error("batch pass orders differ for the same seed")
	}
	if reflect.DeepEqual(order(3), order(4)) {
		t.Error("batch pass orders do not depend on the seed")
	}

	fixed, err := serveFixed()
	if err != nil {
		t.Fatal(err)
	}
	sched := func(seed int64, poisson bool) ([]time.Duration, []input) {
		s := &serveRun{cfg: runConfig{seed: seed}, rng: rand.New(rand.NewSource(seed)), fixed: fixed}
		return s.schedule(100, 2*time.Second, poisson)
	}
	for _, poisson := range []bool{true, false} {
		at1, in1 := sched(5, poisson)
		at2, in2 := sched(5, poisson)
		if !reflect.DeepEqual(at1, at2) || !reflect.DeepEqual(in1, in2) {
			t.Errorf("poisson=%t: schedule differs for the same seed", poisson)
		}
		_, in3 := sched(6, poisson)
		if reflect.DeepEqual(in1, in3) {
			t.Errorf("poisson=%t: schedule does not depend on the seed", poisson)
		}
	}
}

// The open-loop mix keeps its proportions in every block of ten requests.
func TestScheduleMix(t *testing.T) {
	fixed, err := serveFixed()
	if err != nil {
		t.Fatal(err)
	}
	s := &serveRun{cfg: runConfig{seed: 1}, rng: rand.New(rand.NewSource(1)), fixed: fixed}
	at, ins := s.schedule(50, 2*time.Second, false)
	if len(at) != 99 || len(ins) != len(at) {
		t.Fatalf("evenly spaced schedule at 50/s over 2s: %d arrivals, want 99", len(at))
	}
	for b := 0; b+10 <= len(ins); b += 10 {
		n := map[string]int{}
		for _, in := range ins[b : b+10] {
			n[in.Format]++
			if in.Format == "eqn" && in.Key != "" {
				t.Errorf("fresh design %s has a digest key", in.Name)
			}
		}
		if n["blif"] != 5 || n["eqn"] != 3 || n["spec"] != 2 {
			t.Errorf("block %d mix %v, want 5 blif, 3 eqn, 2 spec", b/10, n)
		}
	}
}

// An overloaded ladder rung's 503 or 504 is not a failed operation; the
// same status on a nominal request is, and so is a ladder 500.
func TestCheckCountsOnlyUnexpectedRefusals(t *testing.T) {
	c, err := newChecker(false)
	if err != nil {
		t.Fatal(err)
	}
	in := freshDesign(1, 1, "LSI9K")
	s := &serveRun{all: []*served{
		{in: in, status: http.StatusServiceUnavailable, ladder: true},
		{in: in, status: http.StatusGatewayTimeout, ladder: true},
		{in: in, status: http.StatusInternalServerError, ladder: true},
		{in: in, status: http.StatusServiceUnavailable},
	}}
	if refused := s.check(c); refused != 2 {
		t.Errorf("refused = %d, want 2", refused)
	}
	if c.attempted != 2 || c.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 2 and 2", c.attempted, c.failed)
	}
}

// A served netlist text rebuilds into the same netlist.
func TestParseNetlistRoundTrip(t *testing.T) {
	in := freshDesign(1, 1, "Actel")
	net, err := sourceNetwork(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(net, library.MustGet("Actel"), core.Options{Mode: core.Async})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := parseNetlist(res.Netlist.String(), "Actel")
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyNetlist(net, nl); err != nil {
		t.Fatal(err)
	}
	if _, err := parseNetlist(res.Netlist.String()+"bogus = NOPE(a)\n", "Actel"); err == nil {
		t.Error("unknown cell accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLogSlope(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{3, 12, 48, 192}
	if got := logSlope(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Errorf("logSlope of y = 3x^2 is %g, want 2", got)
	}
	if got := slope(xs, []float64{3, 5, 9, 17}); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope of y = 2x + 1 is %g, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := tr.add("design", "d", 0, ms(0), ms(10))
	tr.add("eqn.Parse", "d", root, ms(0), ms(2))
	m := tr.add("core.Map", "d", root, ms(2), ms(10))
	tr.addPhases(m, "d", ms(2), []string{"network.decompose", "core.cover"},
		[]time.Duration{3 * time.Millisecond, 4 * time.Millisecond})
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"design": 0, "eqn.Parse": 2 * time.Millisecond, "core.Map": time.Millisecond,
		"network.decompose": 3 * time.Millisecond, "core.cover": 4 * time.Millisecond,
	}
	for name, w := range want {
		if d := self[name] - w; d > time.Microsecond || d < -time.Microsecond {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}
