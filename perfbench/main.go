// Command perfbench is the repository's benchmark: four workloads over the
// mapper and its service, each printing its end-to-end metrics (or, with
// --trace 1, its per-layer metrics) and a final JSON line. See README.md.
//
//	bash perfbench/run.sh --workload paper-actel --seed 1 --seconds 20 --trace 0
//
// It runs from the repository root and reads BENCHMARK.json for the
// metric names and units it must report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload    string
	seed        int64
	seconds     time.Duration
	trace       bool
	record      bool
	tailLimitMS float64   // map_tail_ms limit of a max_rps ladder rung
	ladder      []float64 // max_rps rungs, requests/s, ascending
}

func (c runConfig) tracePath() string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// report collects one run's metrics and its correctness accounting.
type report struct {
	c       *checker
	metrics map[string]float64
	notes   []string
	passes  int
}

func newReport(c *checker) *report { return &report{c: c, metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLatency reports the median and tail of a latency sample in ms, and
// notes the tail's percentile and the sample count.
func (r *report) setLatency(prefix string, ms []float64) {
	p50 := percentile(ms, 50)
	t, p := tail(ms)
	r.set(prefix+"_p50_ms", p50)
	r.set(prefix+"_tail_ms", t)
	r.note("%s_p50_ms = %.3f ms, %s_tail_ms = %.3f ms (p%g of n=%d)", prefix, p50, prefix, t, p, len(ms))
}

var workloads = map[string]func(runConfig) (*report, error){
	"paper-lsi9k": func(c runConfig) (*report, error) { return runBatch(c, "LSI9K", paperCorpus) },
	"paper-actel": func(c runConfig) (*report, error) { return runBatch(c, "Actel", paperCorpus) },
	"scale-lsi9k": func(c runConfig) (*report, error) { return runBatch(c, "LSI9K", scaleCorpus) },
	"serve-mixed": runServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg runConfig
	var seconds, traceFlag int
	var ladder string
	flag.StringVar(&cfg.workload, "workload", "", "paper-lsi9k, paper-actel, scale-lsi9k or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.BoolVar(&cfg.record, "record", false, "verify every seed-independent netlist and record its digest in perfbench/digests.json")
	flag.Float64Var(&cfg.tailLimitMS, "map-tail-limit-ms", 0, "serve-mixed map_tail_ms limit of a max_rps rung (required for serve-mixed)")
	flag.StringVar(&ladder, "ladder", "", "serve-mixed max_rps rungs lo:hi:ratio in requests/s (required for serve-mixed)")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	runW, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// The limit and the ladder are set only in BENCHMARK.json's command.
	if cfg.workload == "serve-mixed" {
		if cfg.tailLimitMS <= 0 || ladder == "" {
			return fmt.Errorf("serve-mixed needs --map-tail-limit-ms and --ladder")
		}
		var err error
		if cfg.ladder, err = parseLadder(ladder); err != nil {
			return err
		}
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	rep, err := runW(cfg)
	if err != nil {
		return err
	}
	if cfg.record {
		if !rep.c.correct() {
			return fmt.Errorf("not recording: %d of %d operations failed", rep.c.failed, rep.c.attempted)
		}
		if err := saveDigests(rep.c.recordOut); err != nil {
			return err
		}
		fmt.Printf("recorded %d digests for %s\n", len(rep.c.recordOut), cfg.workload)
		return nil
	}
	return emit(cfg, spec, rep)
}

// parseLadder expands lo:hi:ratio into geometric rungs.
func parseLadder(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("ladder %q: want lo:hi:ratio", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("ladder %q: %w", s, err)
		}
		v[i] = f
	}
	if v[0] <= 0 || v[1] < v[0] || v[2] <= 1 {
		return nil, fmt.Errorf("ladder %q: want 0 < lo <= hi and ratio > 1", s)
	}
	var rungs []float64
	for r := v[0]; r <= v[1]*(1+1e-9); r *= v[2] {
		rungs = append(rungs, math.Round(r*100)/100)
	}
	return rungs, nil
}

// emit prints the human-readable report and, last, the JSON result line.
// Untraced runs must produce every end-to-end metric; in traced runs a
// per-layer metric the workload does not exercise reads 0.
func emit(cfg runConfig, spec benchSpec, rep *report) error {
	c := rep.c
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	} else {
		rep.set("ok_frac", c.okFrac())
		rep.set("digest_match_frac", c.digestMatchFrac())
	}
	out := map[string]any{}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t passes=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, rep.passes)
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
		fmt.Printf("  %-26s %14.6g %s\n", m.Name, v, m.Unit)
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	fmt.Printf("  %-26s %14.6g %s\n", "failed_frac", 1-c.okFrac(), "ratio")
	fmt.Printf("  %-26s %14d %s\n", "netlist_mismatch", c.mismatches, "count")
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	if cfg.trace {
		fmt.Println("  spans written to " + cfg.tracePath())
	}
	line, err := json.Marshal(map[string]any{
		"correct":   c.correct(),
		"attempted": c.attempted,
		"failed":    c.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
