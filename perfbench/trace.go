package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. The benchmark records spans only from its
// own code, around its calls into the program's public functions and
// endpoints; the phase spans under core.Map are laid out from the phase
// times core.Map returns in its Stats (marked FromStats).
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"` // 0 for a root span
	Name      string  `json:"name"`
	Ref       string  `json:"ref"` // design or request id
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	FromStats bool    `json:"from_stats,omitempty"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and reads no clock, so the untraced runs pay nothing for it. It
// is not safe for concurrent use: the benchmark records spans from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// add records a finished interval and returns its id (0 when t is nil).
func (t *tracer) add(name, ref string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Ref: ref, StartUS: t.us(start), EndUS: t.us(end)})
	return len(t.spans)
}

// addPhases lays child spans for consecutive phase durations, as the
// program reported them, out from start under parent.
func (t *tracer) addPhases(parent int, ref string, start time.Time, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	for i, name := range names {
		end := start.Add(durs[i])
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Ref: ref,
			StartUS: t.us(start), EndUS: t.us(end), FromStats: true})
		start = end
	}
}

// selfTimes returns each span name's summed self time: its spans'
// durations minus the part of each interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total * float64(time.Microsecond))
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	selfMS := make(map[string]float64, len(self))
	for name, d := range self {
		selfMS[name] = float64(d) / float64(time.Millisecond)
	}
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfMS, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
