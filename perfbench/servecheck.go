package main

// Checking serve-mixed's responses, outside the timed phases.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/server"
)

// decoded is a response body decoded by endpoint.
type decoded struct {
	m *server.MapResponse
	s *server.SynthResponse
}

func decode(r *served) (decoded, error) {
	var d decoded
	if r.in.Format == "spec" {
		d.s = &server.SynthResponse{}
		return d, json.Unmarshal(r.body, d.s)
	}
	d.m = &server.MapResponse{}
	return d, json.Unmarshal(r.body, d.m)
}

func (d decoded) netlist() string {
	if d.s != nil {
		return d.s.Netlist
	}
	return d.m.Netlist
}

// fixedQoR sums area and delay over one response per fixed input.
func fixedQoR(all []*served) (area, delay float64) {
	seen := map[string]bool{}
	for _, r := range all {
		if r.in.Key == "" || seen[r.in.Key] || r.status != http.StatusOK {
			continue
		}
		d, err := decode(r)
		if err != nil {
			continue
		}
		seen[r.in.Key] = true
		if d.s != nil {
			area, delay = area+d.s.Area, delay+d.s.Delay
		} else {
			area, delay = area+d.m.Area, delay+d.m.Delay
		}
	}
	return area, delay
}

// check checks every response of the run, after all timed phases: status
// 200, a hazard-free /synth certificate, and a netlist proven correct
// (see checker). An unproven served netlist is rebuilt from its text and
// verified against its source network; those verifications run on one
// goroutine per CPU. A ladder rung above capacity may be refused (503) or
// time out (504): that is the overload the rung probes for, already
// counted as a missed latency, so it is not an operation of the run.
func (s *serveRun) check(c *checker) (refused int) {
	type job struct {
		in   input
		dg   string
		text string
		err  error
	}
	var jobs []*job
	queued := map[string]bool{}
	for _, r := range s.all {
		if r.ladder && r.err == nil && (r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout) {
			refused++
			continue
		}
		c.attempted++
		if r.err != nil || r.status != http.StatusOK {
			c.fail("%s %s on %s: status %d: %v %s", r.in.Format, r.in.Name, r.in.Lib, r.status, r.err, bytes.TrimSpace(r.body))
			continue
		}
		d, err := decode(r)
		if err != nil {
			c.fail("%s on %s: bad response: %v", r.in.Name, r.in.Lib, err)
			continue
		}
		if d.s != nil && (d.s.Evidence == nil || !d.s.Evidence.HazardFree) {
			c.fail("%s on %s: /synth certificate refuted", r.in.Name, r.in.Lib)
			continue
		}
		text := d.netlist()
		dg := digest(text)
		if c.proven(r.in, dg) || queued[digest(r.in.Text)+dg] {
			continue
		}
		queued[digest(r.in.Text)+dg] = true
		jobs = append(jobs, &job{in: r.in, dg: dg, text: text})
	}
	var wg sync.WaitGroup
	next := make(chan *job)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				net, err := sourceNetwork(j.in)
				if err != nil {
					j.err = err
					continue
				}
				nl, err := parseNetlist(j.text, j.in.Lib)
				if err != nil {
					j.err = err
					continue
				}
				j.err = verifyNetlist(net, nl)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	for _, j := range jobs {
		c.settle(j.in, j.dg, j.err)
	}
	return refused
}

// parseNetlist rebuilds a served netlist (core.Netlist.String's text) over
// the named library, and insists the rebuild renders the same text.
func parseNetlist(text, libName string) (*core.Netlist, error) {
	lib, err := library.Get(libName)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "# netlist ") {
		return nil, fmt.Errorf("netlist: bad header")
	}
	list := func(line, kw string) ([]string, error) {
		if !strings.HasPrefix(line, kw+"(") || !strings.HasSuffix(line, ")") {
			return nil, fmt.Errorf("netlist: want %s(...), got %q", kw, line)
		}
		body := line[len(kw)+1 : len(line)-1]
		if body == "" {
			return nil, nil
		}
		return strings.Split(body, ","), nil
	}
	ins, err := list(lines[1], "INPUT")
	if err != nil {
		return nil, err
	}
	outs, err := list(lines[2], "OUTPUT")
	if err != nil {
		return nil, err
	}
	name := strings.TrimPrefix(lines[0], "# netlist ")
	name = name[:strings.LastIndex(name, ": ")]
	nl := core.NewNetlist(name, ins, outs)
	for _, g := range lines[3:] {
		out, call, ok := strings.Cut(g, " = ")
		open := strings.IndexByte(call, '(')
		if !ok || open < 0 {
			return nil, fmt.Errorf("netlist: bad gate line %q", g)
		}
		cell := lib.Cell(call[:open])
		if cell == nil {
			return nil, fmt.Errorf("netlist: unknown cell in %q", g)
		}
		pins, err := list(call[open:], "")
		if err != nil {
			return nil, err
		}
		if _, err := nl.AddGate(cell, pins, out); err != nil {
			return nil, err
		}
	}
	if nl.String() != text {
		return nil, fmt.Errorf("netlist: text does not round-trip")
	}
	return nl, nil
}

// reconcileServed checks a traced closed-loop pass like reconcile does a
// batch pass, with the phase and map times the responses report: per
// request decompose + partition + cover + emit <= the mapping time, and
// the pass's mapping times <= its wall time.
func reconcileServed(reqs []*served, wall time.Duration) error {
	var mapSum time.Duration
	for _, r := range reqs {
		d, err := decode(r)
		if err != nil {
			return err
		}
		var st core.Stats
		var mapMS float64
		if d.s != nil {
			st, mapMS = d.s.Stats, d.s.MapMS
		} else {
			st, mapMS = d.m.Stats, d.m.ElapsedMS
		}
		mapT := time.Duration(mapMS * float64(time.Millisecond))
		if phases := st.DecomposeTime + st.PartitionTime + st.CoverTime + st.EmitTime; phases > mapT {
			return fmt.Errorf("%s: decompose+partition+cover+emit %v > mapping %v", r.in.Name, phases, mapT)
		}
		mapSum += mapT
	}
	if mapSum > wall {
		return fmt.Errorf("mapping total %v > pass wall %v", mapSum, wall)
	}
	return nil
}
