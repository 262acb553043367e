package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/shapes"
)

// The sweep-cold workload calls autotune.TuneNetwork directly: each sweep
// tunes ResNet-18, MobileNetV1 and VGG-19, every network on a fresh cache,
// with all four kernel kinds as candidates and warm-starting on. After
// each sweep, every network is tuned again a few times on the cache its
// cold tune filled: the library's cache-hit path.

const (
	sweepBudget = 32
	// sweepSetups is how many untimed first sweeps a run makes; setup_s is
	// their median and the last one's verdicts are the reference answers.
	sweepSetups = 3
	// hitRepeats is how many times each network is re-tuned on its filled
	// cache after every timed cold sweep.
	hitRepeats = 40
)

var sweepArch = memsim.V100

var inf = math.Inf(1)

// sweepNetwork is one network of the sweep.
type sweepNetwork struct {
	name   string
	layers []autotune.NetworkLayer
}

func sweepNetworks() []sweepNetwork {
	r, m, v := models.ResNet18(), models.MobileNetV1(), models.VGG19()
	return []sweepNetwork{{r.Name, r.NetworkLayers()}, {m.Name, m.NetworkLayers()}, {v.Name, v.NetworkLayers()}}
}

// measureTrace is the traced phase's WrapMeasurer: it times every dry
// measurement as a span nested in its network's TuneNetwork span and keeps
// each search's sequence of measured times.
type measureTrace struct {
	tr *tracer

	mu       sync.Mutex
	searches [][]float64 // measured seconds per search, in call order; +Inf for a failed one
}

func (p *measureTrace) wrap(parent int64, req int) func(autotune.Kind, shapes.ConvShape, autotune.Measurer) autotune.FallibleMeasurer {
	return func(_ autotune.Kind, _ shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
		p.mu.Lock()
		p.searches = append(p.searches, nil)
		idx := len(p.searches) - 1
		p.mu.Unlock()
		return func(c conv.Config) (autotune.Measurement, bool, error) {
			t0 := time.Now()
			meas, ok := m(c)
			t1 := time.Now()
			p.tr.record("conv.measure", parent, req, false, t0, t1)
			s := meas.Seconds
			if !ok {
				s = inf
			}
			p.mu.Lock()
			p.searches[idx] = append(p.searches[idx], s)
			p.mu.Unlock()
			return meas, ok, nil
		}
	}
}

// to5pct is, averaged over searches, the share of a search's measurements
// spent before its best-so-far came within 5% of its final result.
func (p *measureTrace) to5pct() float64 {
	var sum float64
	n := 0
	for _, seq := range p.searches {
		final := inf
		for _, s := range seq {
			final = min(final, s)
		}
		if len(seq) == 0 || final == inf {
			continue
		}
		best := inf
		for i, s := range seq {
			best = min(best, s)
			if best <= 1.05*final {
				sum += float64(i+1) / float64(len(seq))
				n++
				break
			}
		}
	}
	return ratio(sum, float64(n))
}

// sweeper runs sweeps and hit replays and books their answers.
type sweeper struct {
	nets      []sweepNetwork
	baseSeed  int64 // network j of sweep i tunes at engine seed baseSeed+i·len(nets)+j
	probeSeed int64 // seeds each phase's cold probe
	opts      autotune.NetworkOptions
	measured  atomic.Int64 // fresh measurements, through Options.OnMeasure
}

// sweepResult is one cold sweep: per network its verdicts and filled cache.
type sweepResult struct {
	verdicts [][]autotune.LayerVerdict
	caches   []*autotune.Cache
	errs     []error
	took     time.Duration
	measured int64
	tunedMs  float64 // summed network_seconds of the networks, in ms
}

// sweep tunes every network cold, each at its own engine seed for sweep
// number req.
// With a measure trace, each TuneNetwork call is a span and every measurement a
// span inside it.
func (sw *sweeper) sweep(mt *measureTrace, parent int64, req int) sweepResult {
	res := sweepResult{}
	m0 := sw.measured.Load()
	t0 := time.Now()
	for i, n := range sw.nets {
		cache := autotune.NewCache()
		opts := sw.opts
		opts.Tune.Seed = sw.baseSeed + int64(req*len(sw.nets)+i)
		var id int64
		c0 := time.Now()
		if mt != nil {
			id = mt.tr.reserve("autotune.TuneNetwork", parent, req, c0)
			opts.WrapMeasurer = mt.wrap(id, req)
		}
		v, err := autotune.TuneNetwork(sweepArch, n.layers, cache, opts)
		c1 := time.Now()
		if mt != nil {
			mt.tr.finish(id, c1)
		}
		res.verdicts = append(res.verdicts, v)
		res.caches = append(res.caches, cache)
		res.errs = append(res.errs, err)
	}
	res.took = time.Since(t0)
	res.measured = sw.measured.Load() - m0
	for i, v := range res.verdicts {
		if res.errs[i] == nil {
			res.tunedMs += autotune.NetworkSeconds(v) * 1e3
		}
	}
	return res
}

// runSweepCold is the sweep-cold workload.
func runSweepCold(cfg runConfig) (*report, error) {
	// Every network of every sweep tunes at its own engine seed, so a run's
	// timings and tuned quality average over as many searches as it makes.
	// The set-up's first sweeps use the seeds of the timed phase's first
	// sweeps, whose answers must reproduce them.
	rng := rand.New(rand.NewSource(cfg.seed))
	opts := autotune.DefaultOptions()
	opts.Budget, opts.Patience = sweepBudget, 0
	sw := &sweeper{nets: sweepNetworks(), baseSeed: engineSeed(rng), probeSeed: rng.Int63()}
	opts.OnMeasure = func() { sw.measured.Add(1) }
	sw.opts = autotune.NetworkOptions{Tune: opts, Workers: runtime.NumCPU(), Kinds: autotune.Kinds, Warm: true}

	rep := &report{}
	chk := newChecker(sweepArch)
	var setupS []float64
	refs := make(map[int][]repro.TuneResponse)
	for i := 0; i < sweepSetups; i++ {
		res := sw.sweep(nil, 0, i)
		setupS = append(setupS, res.took.Seconds())
		for j, n := range sw.nets {
			rep.attempted++
			if res.errs[j] != nil {
				rep.fail("%s: first sweep %d: %v", n.name, i, res.errs[j])
				continue
			}
			resp := describe(res.verdicts[j])
			if p := chk.response(n.layers, resp); p != "" {
				rep.fail("%s: first sweep %d: %s", n.name, i, p)
			}
			refs[i] = append(refs[i], resp)
		}
		if len(refs[i]) != len(sw.nets) {
			delete(refs, i)
		}
	}

	untraced := sw.timed(cfg.seconds, nil)
	sw.check(untraced, refs, chk, rep)
	rep.e2e = untraced.e2eEntries(setupS)
	if cfg.trace {
		mt := &measureTrace{tr: newTracer()}
		traced := sw.timed(cfg.seconds, mt)
		sw.check(traced, refs, chk, rep)
		if err := mt.tr.write(cfg.spans); err != nil {
			return nil, err
		}
		rep.layer = sw.layerEntries(untraced, mt, chk, rep)
		rep.layer = append(rep.layer, ungatedEntries(rep.e2e)...)
		rep.layer = append(rep.layer, overheadEntries(rep.e2e, traced.e2eEntries(setupS))...)
	}
	return rep, nil
}

// sameLayerVerdicts compares what a cache hit must reproduce: kind,
// config, measured time and tier per layer.
func sameLayerVerdicts(a, b []autotune.LayerVerdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Config != b[i].Config || a[i].M.Seconds != b[i].M.Seconds || a[i].Tier != b[i].Tier {
			return false
		}
	}
	return true
}

// describe converts verdicts to the service's wire form, so that the
// library's answers go through the same checks as the service's.
func describe(v []autotune.LayerVerdict) repro.TuneResponse {
	return repro.TuneResponse{Arch: sweepArch.Name, Verdicts: repro.DescribeVerdicts(v),
		NetworkSeconds: autotune.NetworkSeconds(v)}
}

// sweepPhase is one timed phase of sweep-cold.
type sweepPhase struct {
	sweeps      []sweepResult
	hits        int      // hit replays made
	hitProblems []string // hit replays that failed or differed from their cold sweep
	hitMeas     int64    // measurements made by hit replays; must be 0
	probe       []probeResult
	hitMs       []float64
	coldMs      []float64
	sweepS      []float64
	calls       int
	elapsed     time.Duration
	heapMB      float64
	mallocs     uint64
	gcs         uint32
	cacheHits   int64
	cacheMiss   int64
	entries     int
}

// timed runs cold sweeps, each followed by its hit replays, for d (at
// least one sweep).
func (sw *sweeper) timed(d time.Duration, mt *measureTrace) *sweepPhase {
	p := &sweepPhase{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(p.sweeps) == 0 || time.Since(start) < d {
		req := len(p.sweeps)
		var id int64
		if mt != nil {
			id = mt.tr.reserve("sweep", 0, req, time.Now())
		}
		res := sw.sweep(mt, id, req)
		if mt != nil {
			mt.tr.finish(id, time.Now())
		}
		p.sweeps = append(p.sweeps, res)
		p.sweepS = append(p.sweepS, res.took.Seconds())
		p.calls += len(sw.nets)

		// A hit's answer is compared with its cold sweep's right away, a
		// few struct comparisons outside the timed call, so that the phase
		// does not keep thousands of answers alive.
		m := sw.measured.Load()
		for r := 0; r < hitRepeats; r++ {
			for i, n := range sw.nets {
				h0 := time.Now()
				v, err := autotune.TuneNetwork(sweepArch, n.layers, res.caches[i], sw.opts)
				p.hitMs = append(p.hitMs, ms(time.Since(h0)))
				p.calls++
				p.hits++
				switch {
				case err != nil:
					p.hitProblems = append(p.hitProblems, fmt.Sprintf("%s: hit replay: %v", n.name, err))
				case res.errs[i] == nil && !sameLayerVerdicts(v, res.verdicts[i]):
					p.hitProblems = append(p.hitProblems, fmt.Sprintf("%s: hit replay differs from its cold sweep", n.name))
				}
			}
		}
		p.hitMeas += sw.measured.Load() - m
		p.entries = 0
		for _, c := range res.caches {
			st := c.Stats()
			p.cacheHits += st.Hits
			p.cacheMiss += st.Misses
			p.entries += st.Entries
		}
		if len(p.sweeps) > 1 {
			// Only the last sweep's caches stay live, as a deployment keeps one.
			p.sweeps[len(p.sweeps)-2].caches = nil
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.mallocs, p.gcs = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	p.heapMB = heapMB()
	sw.coldProbe(p)
	return p
}

// coldProbe tunes coldProbeRequests novel two-layer networks one after
// another on one fresh cache, with the sweep's options, and times each.
func (sw *sweeper) coldProbe(p *sweepPhase) {
	rng := rand.New(rand.NewSource(sw.probeSeed))
	var exclude []shapes.ConvShape
	for _, n := range sw.nets {
		for _, l := range n.layers {
			exclude = append(exclude, l.Shape)
		}
	}
	gen := newShapeGen(rng.Int63(), exclude)
	cache := autotune.NewCache()
	for i := 0; i < coldProbeRequests; i++ {
		layers, err := gen.network()
		if err != nil {
			p.probe = append(p.probe, probeResult{err: err})
			continue
		}
		opts := sw.opts
		opts.Tune.Seed = engineSeed(rng)
		t0 := time.Now()
		v, err := autotune.TuneNetwork(sweepArch, layers, cache, opts)
		p.coldMs = append(p.coldMs, ms(time.Since(t0)))
		p.probe = append(p.probe, probeResult{layers: layers, verdicts: v, err: err})
	}
}

// probeResult is one cold-probe tune, kept for the correctness gate.
type probeResult struct {
	layers   []autotune.NetworkLayer
	verdicts []autotune.LayerVerdict
	err      error
}

// check runs the correctness gate over a timed phase: a cold sweep at a
// set-up sweep's seed must reproduce its answers (same seed, fresh cache),
// and every hit replay must have reproduced its cold sweep's.
func (sw *sweeper) check(p *sweepPhase, refs map[int][]repro.TuneResponse, chk *checker, rep *report) {
	for si, s := range p.sweeps {
		for i, n := range sw.nets {
			rep.attempted++
			if s.errs[i] != nil {
				rep.fail("%s: sweep %d: %v", n.name, si, s.errs[i])
				continue
			}
			cold := describe(s.verdicts[i])
			if pr := chk.response(n.layers, cold); pr != "" {
				rep.fail("%s: sweep %d: %s", n.name, si, pr)
			} else if ref, ok := refs[si]; ok {
				if pr := sameVerdicts(cold, ref[i]); pr != "" {
					rep.fail("%s: sweep %d differs from the set-up sweep at its seed: %s", n.name, si, pr)
				}
			}
		}
	}
	rep.attempted += p.hits
	for _, pr := range p.hitProblems {
		rep.fail("%s", pr)
	}
	for i, r := range p.probe {
		rep.attempted++
		if r.err != nil {
			rep.fail("cold probe %d: %v", i, r.err)
		} else if pr := chk.response(r.layers, describe(r.verdicts)); pr != "" {
			rep.fail("cold probe %d: %s", i, pr)
		}
	}
	if p.hitMeas != 0 {
		rep.fail("hit replays made %d measurements; a filled cache must answer without measuring", p.hitMeas)
	}
}

func (p *sweepPhase) e2eEntries(setupS []float64) []entry {
	var tunedMs []float64
	for _, s := range p.sweeps {
		tunedMs = append(tunedMs, s.tunedMs)
	}
	return []entry{
		{name: "setup_s", unit: "s", value: median(setupS), n: len(setupS), note: "first sweeps"},
		percentileEntry("hit_p50_ms", p.hitMs, 0.5),
		tail(percentileEntry("hit_p99_ms", p.hitMs, 0.99)),
		percentileEntry("cold_p50_ms", p.coldMs, 0.5),
		tail(percentileEntry("cold_p90_ms", p.coldMs, 0.9)),
		{name: "throughput_rps", unit: "req/s", value: float64(p.calls) / p.elapsed.Seconds(), n: p.calls},
		{name: "sweep_s", unit: "s", value: median(p.sweepS), n: len(p.sweepS)},
		{name: "tuned_network_ms", unit: "ms", value: median(tunedMs), n: len(tunedMs), note: "median over sweeps"},
		{name: "heap_mb", unit: "MB", value: p.heapMB},
	}
}

// layerEntries are sweep-cold's per-layer metrics: counters from the
// untraced phase, span times from the traced one.
func (sw *sweeper) layerEntries(p *sweepPhase, mt *measureTrace, chk *checker, rep *report) []entry {
	st := mt.tr.stats()
	meas := st["conv.measure"]
	nets := st["autotune.TuneNetwork"]
	sweeps := st["sweep"]
	var measured int64
	for _, s := range p.sweeps {
		measured += s.measured
	}
	geo, viol := chk.boundStats()
	return []entry{
		{name: "repro.decode_us", unit: "us"},
		{name: "repro.encode_us", unit: "us"},
		{name: "tuned.serve_us", unit: "us"},
		{name: "tuned.self_us", unit: "us"},
		{name: "tuned.batch_merge", unit: "ratio"},
		{name: "tuned.analytic_share", unit: "ratio"},
		{name: "autotune.sweep_us", unit: "us", value: mean(p.hitMs) * 1e3, n: len(p.hitMs)},
		{name: "autotune.space_build_us", unit: "us"},
		{name: "autotune.cache_entries_start", unit: "count"},
		{name: "autotune.cache_entries", unit: "count", value: float64(p.entries)},
		{name: "autotune.cache_hit_ratio", unit: "ratio", value: ratio(float64(p.cacheHits), float64(p.cacheHits+p.cacheMiss))},
		{name: "autotune.measurements", unit: "count", value: ratio(float64(measured), float64(len(p.sweeps))), n: len(p.sweeps)},
		{name: "autotune.engine_self_ms", unit: "ms", value: ratio(float64(nets.self)/1e6, float64(sweeps.count)), n: sweeps.count},
		{name: "autotune.to5pct_ratio", unit: "ratio", value: mt.to5pct(), n: len(mt.searches)},
		{name: "conv.measure_us", unit: "us", value: meas.meanUS(), n: meas.count},
		{name: "conv.measure_calls", unit: "count", value: ratio(float64(meas.count), float64(sweeps.count)), n: sweeps.count},
		{name: "bounds.gap_geomean", unit: "ratio", value: geo},
		{name: "bounds.violations", unit: "count", value: float64(viol)},
		{name: "loadgen.late_p99_ms", unit: "ms"},
		{name: "go.allocs_per_req", unit: "count", value: ratio(float64(p.mallocs), float64(p.calls)), n: p.calls},
		{name: "go.gc_cycles", unit: "count", value: float64(p.gcs)},
		{name: "error_rate", unit: "ratio", value: ratio(float64(rep.failed), float64(rep.attempted)), n: rep.attempted},
	}
}
