package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each layer;
// the program itself carries no instrumentation for this. They stay in
// memory and are written once, at exit.

// span is one timed interval. Parent is the index of the enclosing span (-1
// for a root); spans of one operation share Op.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the trace epoch
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced windows run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.epoch)) / 1e6 }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a span over [start, end] and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// timed runs f inside a span and returns the span's index.
func (t *tracer) timed(name string, parent, op int, f func()) int {
	start := time.Now()
	f()
	return t.add(name, start, time.Now(), parent, op)
}

// openSpan is a span begun but not yet ended, so that its children can
// name it as their parent while it runs.
type openSpan struct {
	t *tracer
	i int
}

// newRoot begins a root span of operation op.
func (t *tracer) newRoot(name string, op int) openSpan {
	if t == nil {
		return openSpan{i: -1}
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: -1, Op: op})
	return openSpan{t: t, i: len(t.spans) - 1}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := s.t.at(time.Now())
	s.t.mu.Lock()
	s.t.spans[s.i].End = now
	s.t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []float64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := 0.0, s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[i] = s.ms() - covered
	}
	return out
}

// byName groups span durations (or self times, when self is set) by span
// name.
func byName(spans []span, self bool) map[string][]float64 {
	vals := make([]float64, len(spans))
	if self {
		vals = selfTimes(spans)
	} else {
		for i, s := range spans {
			vals[i] = s.ms()
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], vals[i])
	}
	return out
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
