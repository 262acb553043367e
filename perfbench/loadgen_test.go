package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/shapes"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(c.q); got != c.need {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.need)
		}
		if _, ok := percentile(seq(c.need-1), c.q); ok {
			t.Errorf("p%v of %d samples reported valid; fewer than ten lie beyond it", c.q*100, c.need-1)
		}
		v, ok := percentile(seq(c.need), c.q)
		if !ok {
			t.Errorf("p%v of %d samples reported invalid; ten lie beyond it", c.q*100, c.need)
		}
		if want := float64(c.need - 10); v != want {
			t.Errorf("p%v of 1..%d = %v, want %v (ten samples beyond)", c.q*100, c.need, v, want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported valid")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTimingAccounting(t *testing.T) {
	due := time.Unix(100, 0)
	tm := timing{due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(10 * time.Millisecond)}
	if got := tm.late(); got != 3*time.Millisecond {
		t.Errorf("late = %v, want 3ms", got)
	}
	// Latency runs from when the request was due, so the generator's 3 ms
	// delay is charged to the request.
	if got := tm.latency(); got != 10*time.Millisecond {
		t.Errorf("latency = %v, want 10ms", got)
	}
}

// TestOpenLoopChargesStalls drives the open loop with one slot and a send
// slower than the schedule: each request waits for the one before it, so
// lateness grows by the excess every request, and its latency, measured
// from when it was due, includes that wait.
func TestOpenLoopChargesStalls(t *testing.T) {
	const (
		rate    = 1000 // one request due every 1 ms
		service = 10 * time.Millisecond
	)
	timings := openLoop(rate, 5*time.Millisecond, 1, func(int) time.Time {
		time.Sleep(service)
		return time.Now()
	})
	if len(timings) != 5 {
		t.Fatalf("sent %d requests, want 5 (rate × duration)", len(timings))
	}
	for i, tm := range timings {
		if i > 0 {
			if got := tm.due.Sub(timings[i-1].due); got != time.Millisecond {
				t.Errorf("request %d due %v after the one before, want 1ms", i, got)
			}
		}
		minLate := time.Duration(i) * (service - time.Millisecond)
		if tm.late() < minLate {
			t.Errorf("request %d late by %v, want at least %v", i, tm.late(), minLate)
		}
		if tm.latency() < tm.late()+service {
			t.Errorf("request %d latency %v excludes its %v lateness plus %v service", i, tm.latency(), tm.late(), service)
		}
	}
}

func TestOpenLoopDoesNotWaitForAnswers(t *testing.T) {
	// With room for every request, a slow server does not hold the
	// generator back: all requests go out on schedule.
	timings := openLoop(200, 50*time.Millisecond, 64, func(int) time.Time {
		time.Sleep(40 * time.Millisecond)
		return time.Now()
	})
	last := timings[len(timings)-1]
	if last.late() > 20*time.Millisecond {
		t.Errorf("last request sent %v late although slots were free", last.late())
	}
}

func TestClosedLoopHandsOutEveryIndex(t *testing.T) {
	var calls atomic.Int64
	seen := make([]atomic.Bool, 1<<12)
	lat, elapsed := closedLoop(2, 30*time.Millisecond, func(i int) time.Time {
		calls.Add(1)
		seen[i].Store(true)
		time.Sleep(2 * time.Millisecond)
		return time.Now()
	})
	if int64(len(lat)) != calls.Load() {
		t.Fatalf("%d latencies for %d requests", len(lat), calls.Load())
	}
	for i, d := range lat {
		if !seen[i].Load() {
			t.Errorf("index %d never sent", i)
		}
		if d < 2*time.Millisecond {
			t.Errorf("request %d latency %v below its service time", i, d)
		}
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v shorter than the run", elapsed)
	}
}

func TestShapeGenNeverRepeats(t *testing.T) {
	var exclude []shapes.ConvShape
	for _, m := range models.Figure12Models() {
		for _, l := range m.Layers {
			exclude = append(exclude, l.Shape)
		}
	}
	// Exclude one shape the generator can draw, so the property is tested
	// against a real collision and not only against catalog shapes it could
	// never produce.
	first, err := newShapeGen(7, nil).layer(3)
	if err != nil {
		t.Fatal(err)
	}
	exclude = append(exclude, first)
	excluded := make(map[shapes.ConvShape]bool)
	for _, s := range exclude {
		excluded[s] = true
	}

	a, b := newShapeGen(7, exclude), newShapeGen(7, exclude)
	seen := make(map[shapes.ConvShape]bool)
	// 200 networks: above the 120 novel networks of a 20-second serve-mixed
	// run and the 100 of a cold probe.
	for i := 0; i < 200; i++ {
		na, err := a.network()
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		nb, err := b.network()
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		for j, l := range na {
			s := l.Shape
			if s != nb[j].Shape {
				t.Fatalf("network %d layer %d: same seed drew %v and %v", i, j, s, nb[j].Shape)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("network %d layer %d: %v", i, j, err)
			}
			if seen[s] || excluded[s] {
				t.Fatalf("network %d layer %d: %v repeats", i, j, s)
			}
			seen[s] = true
		}
	}
}

func TestCoveredSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := span{start: at(0), end: at(10)}
	// Nested children overlap each other and spill past the parent: only
	// the covered part of [0, 10] counts, once.
	nested := []span{{start: at(1), end: at(4)}, {start: at(3), end: at(6)}, {start: at(8), end: at(12)}}
	if got := covered(parent, nested); got != 7*time.Millisecond {
		t.Errorf("nested children cover %v, want 7ms", got)
	}
	// Replayed children run after the parent and count whole.
	replayed := []span{{start: at(10), end: at(13), Replayed: true}, {start: at(13), end: at(14), Replayed: true}}
	if got := covered(parent, replayed); got != 4*time.Millisecond {
		t.Errorf("replayed children account for %v, want 4ms", got)
	}
}
