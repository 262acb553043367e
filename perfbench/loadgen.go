package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/autotune"
	"repro/internal/shapes"
)

// minBeyond is the percentile rule: a percentile is valid only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it is valid under the percentile rule. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(q, len(s))
	return s[i], len(s)-1-i >= minBeyond
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples:
// the smallest i with (i+1)/n >= q. The epsilon keeps q·n from rounding up
// past a whole number (0.9·100 is 90.00000000000001 in floating point).
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)-1e-9))-1, 0)
}

// minSamples is the smallest sample count for which percentile(q) is valid.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-1-rank(q, n) >= minBeyond {
			return n
		}
	}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// timing is one open-loop request's clock readings: when it was due, when
// the generator actually sent it, and when its answer arrived.
type timing struct {
	due, sent, done time.Time
}

// latency is measured from when the request was due, so a generator or
// server stall is charged to every request it delayed.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator sent the request.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

// openLoop sends requests 0, 1, ... at a fixed rate for d, whatever the
// state of earlier requests: request i is due at start + i/rate. send runs
// on its own goroutine per request and returns when the answer arrived;
// openLoop returns once every request it sent has completed. maxInflight
// bounds the goroutines; a request that finds the bound reached waits for
// a slot, and that wait shows as lateness.
func openLoop(rate float64, d time.Duration, maxInflight int, send func(i int) time.Time) []timing {
	start := time.Now()
	n := int(d.Seconds() * rate)
	timings := make([]timing, n)
	slots := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		timings[i].due = due
		timings[i].sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			timings[i].done = send(i)
			<-slots
		}(i)
	}
	wg.Wait()
	return timings
}

// closedLoop runs clients that each send their next request only after the
// previous one completes, for d. Request indices are handed out in order
// across all clients; send returns when the answer arrived. closedLoop
// returns the requests' latencies by index and the elapsed wall time.
func closedLoop(clients int, d time.Duration, send func(i int) time.Time) ([]time.Duration, time.Duration) {
	var mu sync.Mutex
	var lat []time.Duration
	next := 0
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				lat = append(lat, 0)
				mu.Unlock()
				t0 := time.Now()
				dt := send(i).Sub(t0)
				mu.Lock()
				lat[i] = dt
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// coldProbeRequests is how many novel networks a cold probe tunes one after
// another once a workload's timed phase is over — enough for a valid p90.
// serve-hit and sweep-cold have no cold requests of their own; the probe
// times the cold path of the same server or tuner.
const coldProbeRequests = 100

// shapeGen draws novel convolution layers from a seeded generator. No shape
// it returns repeats within its lifetime, nor equals any excluded shape
// (the networks already cached), so every network it builds is cold.
type shapeGen struct {
	rng  *rand.Rand
	seen map[shapes.ConvShape]bool
}

func newShapeGen(seed int64, exclude []shapes.ConvShape) *shapeGen {
	g := &shapeGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[shapes.ConvShape]bool)}
	for _, s := range exclude {
		g.seen[s] = true
	}
	return g
}

// layer draws one unseen k×k layer (pad k/2) on a 28×28 image with 64 or
// 128 output channels and 16–1024 input channels in steps of 8. The output
// geometry, which sets the size of the search space, takes only two values,
// so the cold tunes the shapes cause cost about the same.
func (g *shapeGen) layer(k int) (shapes.ConvShape, error) {
	for try := 0; try < 1000; try++ {
		s := shapes.ConvShape{Batch: 1, Cin: 16 + 8*g.rng.Intn(127), Hin: 28, Win: 28,
			Cout: 64 << g.rng.Intn(2), Hker: k, Wker: k, Strid: 1, Pad: k / 2}
		if !g.seen[s] {
			g.seen[s] = true
			return s, nil
		}
	}
	return shapes.ConvShape{}, fmt.Errorf("shape generator: no unseen %d×%d shape left", k, k)
}

// network draws a novel two-layer network: a 3×3 layer "a" and a 1×1
// layer "b".
func (g *shapeGen) network() ([]autotune.NetworkLayer, error) {
	a, err := g.layer(3)
	if err != nil {
		return nil, err
	}
	b, err := g.layer(1)
	if err != nil {
		return nil, err
	}
	return []autotune.NetworkLayer{{Name: "a", Shape: a, Repeat: 1}, {Name: "b", Shape: b, Repeat: 1}}, nil
}
