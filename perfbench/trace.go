package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark's own code around its calls into
// each layer's public functions, kept in memory, and written out when the
// run ends. A span either nests inside its parent in time (a measurement
// inside a network sweep) or is a replay: a child the parent runs opaquely
// (ServeHTTP decodes, sweeps and encodes inside the server), re-run by the
// benchmark right after the parent so that its cost can be timed. A
// layer's self time is its span's duration minus the time its children
// account for: the covered part of its interval for nested children, the
// full duration of replayed ones.

// span is one recorded interval.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"` // 0 = root
	Name     string `json:"name"`
	Req      int    `json:"req"`                // request or sweep index the span belongs to
	Replayed bool   `json:"replayed,omitempty"` // re-run after its parent, not inside it
	start    time.Time
	end      time.Time
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps the spans of one traced phase in memory. It is safe for
// concurrent use.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// record books a finished span and returns its id, for children to name
// as their parent.
func (t *tracer) record(name string, parent int64, req int, replayed bool, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Replayed: replayed,
		start: start, end: end})
	return id
}

// reserve books a span whose end is not known yet (a parent whose children
// are recorded while it runs); finish sets its end.
func (t *tracer) reserve(name string, parent int64, req int, start time.Time) int64 {
	return t.record(name, parent, req, false, start, start)
}

func (t *tracer) finish(id int64, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// stat is the per-name summary of a traced phase.
type stat struct {
	count int
	total time.Duration // summed span durations
	self  time.Duration // summed self times
}

func (s stat) meanUS() float64     { return s.usPer(s.total) }
func (s stat) meanSelfUS() float64 { return s.usPer(s.self) }
func (s stat) usPer(d time.Duration) float64 {
	if s.count == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(s.count)
}

// stats summarizes the spans by name: count, summed duration and summed
// self time.
func (t *tracer) stats() map[string]stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]stat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the time a span's children account for: the union of their
// intervals, where a nested child is clipped to the parent's interval and
// a replayed child counts whole.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if !k.Replayed {
			if a.Before(parent.start) {
				a = parent.start
			}
			if b.After(parent.end) {
				b = parent.end
			}
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// write saves the spans as JSON lines, times in microseconds from the
// start of the traced phase.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.StartUS = float64(s.start.Sub(t.base).Nanoseconds()) / 1e3
		s.EndUS = float64(s.end.Sub(t.base).Nanoseconds()) / 1e3
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
