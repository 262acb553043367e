package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/shapes"
	"repro/internal/tuned"
)

// The serving workloads drive an in-process tuned.Server through
// ServeHTTP, so the numbers measure the program and not a loopback stack.

const (
	// serveBudget is the per-request measurement budget of every POST.
	serveBudget = 32
	// setups is how many times a run sets the server up; setup_s is the
	// median.
	setups = 6
	// hitClients is serve-hit's closed-loop client count (capped at nproc).
	hitClients = 2
	// mixedRate is serve-mixed's open-loop request rate, and mixedNovelEvery
	// the share of novel networks: one request in every mixedNovelEvery. At
	// 40 req/s a 2-core machine is about half busy; at 60 a slower spell of
	// the machine pushed it near saturation and cold latency swung by half.
	mixedRate       = 40
	mixedNovelEvery = 10
	// mixedMaxInflight bounds the open loop's concurrent requests; a
	// request that finds it reached waits, and the wait shows as lateness.
	mixedMaxInflight = 512
)

var serveArch = memsim.V100

// network is one tuning request: its layers and the POST body describing
// them.
type network struct {
	name    string
	layers  []autotune.NetworkLayer
	body    []byte
	catalog int // index into the catalog, or -1 for a novel network
}

// engineSeed draws a request's engine seed. Every request carries its own,
// so that a run's timings and tuned quality average over many independent
// searches instead of moving together with one seed.
func engineSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<30) }

func newNetwork(name string, layers []autotune.NetworkLayer, engineSeed int64, catalog int) (network, error) {
	desc := repro.DescribeNetwork(serveArch.Name, layers)
	desc.Name = name
	desc.Options = &repro.RequestOptions{Budget: serveBudget, Seed: engineSeed}
	body, err := json.Marshal(desc)
	if err != nil {
		return network{}, fmt.Errorf("encode %s: %w", name, err)
	}
	return network{name: name, layers: layers, body: body, catalog: catalog}, nil
}

// catalogNetworks are the seven networks the serving workloads cache in
// set-up and repeat in the timed phase, each at an engine seed from rng.
func catalogNetworks(rng *rand.Rand) ([]network, error) {
	ms := []models.Model{models.AlexNet(), models.VGG19(), models.ResNet18(), models.ResNet34(),
		models.SqueezeNet(), models.InceptionV3()}
	var nets []network
	for i, m := range ms {
		n, err := newNetwork(m.Name, m.NetworkLayers(), engineSeed(rng), i)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	mb := models.MobileNetV1()
	n, err := newNetwork(mb.Name, mb.NetworkLayers(), engineSeed(rng), len(nets))
	if err != nil {
		return nil, err
	}
	return append(nets, n), nil
}

// catalogShapes lists every layer shape of the catalog, for the novel-shape
// generator to avoid.
func catalogShapes(nets []network) []shapes.ConvShape {
	var out []shapes.ConvShape
	for _, n := range nets {
		for _, l := range n.layers {
			out = append(out, l.Shape)
		}
	}
	return out
}

// daemonConfig is the tuned.Config cmd/tuned builds from its default flags
// (20 ms batch window, warm-start and Winograd on, no state file); mixed
// adds the README deployment's -max-inflight 20000 and -analytic-overflow.
// The /v1/bench trajectory file is left unset: no workload reads it.
func daemonConfig(mixed bool, onMeasure func()) tuned.Config {
	opts := autotune.DefaultOptions()
	opts.Seed = 0
	opts.Workers = 0
	opts.OnMeasure = onMeasure
	cfg := tuned.Config{
		Cache: autotune.NewCache(), Tune: opts,
		Winograd: true, Warm: true, BatchWindow: 20 * time.Millisecond,
		Chaos: chaos.Config{Seed: 1, MaxConsecutive: 2},
	}
	if mixed {
		cfg.MaxInflight = 20000
		cfg.AnalyticOverflow = true
	}
	return cfg
}

// server is one in-process tuning service with the counters the benchmark
// reads from outside.
type server struct {
	cfg      tuned.Config
	srv      *tuned.Server
	measured atomic.Int64 // fresh measurements, through Options.OnMeasure
	bodies   interner
}

func newServer(mixed bool) (*server, error) {
	s := &server{}
	s.cfg = daemonConfig(mixed, func() { s.measured.Add(1) })
	srv, err := tuned.New(s.cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// post sends one POST /v1/tune through ServeHTTP and returns the status
// and the (interned) answer body.
func (s *server) post(body []byte) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, req)
	return rec.Code, s.bodies.intern(rec.Body.Bytes())
}

// metrics scrapes GET /metrics and sums each series by name, and the
// verdict counter additionally by tier.
func (s *server) metrics() map[string]float64 {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if name == "tuned_verdicts_total" && strings.Contains(series, `tier="analytic"`) {
				out["tuned_verdicts_total:analytic"] += v
			}
		}
		out[name] += v
	}
	return out
}

// interner stores each distinct answer body once, so keeping every answer
// for the correctness gate costs little memory.
type interner struct {
	mu sync.Mutex
	m  map[string]string
}

func (in *interner) intern(b []byte) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// reply is one answered request, kept for the correctness gate.
type reply struct {
	net  *network
	code int
	body string
}

// setup is a server with the catalog cached.
type setup struct {
	*server
	nets    []network
	took    time.Duration        // tuned.New until the cache is filled
	fill    time.Duration        // the catalog POSTs alone
	replies []reply              // the catalog POSTs, in catalog order
	first   []repro.TuneResponse // their decoded answers
}

// setUp builds a server and POSTs the catalog once, in order.
func setUp(mixed bool, nets []network) (*setup, error) {
	t0 := time.Now()
	s, err := newServer(mixed)
	if err != nil {
		return nil, err
	}
	st := &setup{server: s, nets: nets}
	f0 := time.Now()
	for i := range nets {
		code, body := s.post(nets[i].body)
		st.replies = append(st.replies, reply{net: &nets[i], code: code, body: body})
	}
	st.fill = time.Since(f0)
	st.took = time.Since(t0)
	return st, nil
}

// allShared reports whether no layer of an answer ran its own search: every
// verdict came from the cache or from another request's search.
func allShared(resp repro.TuneResponse) bool {
	for _, v := range resp.Verdicts {
		if !v.Shared {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveRun is everything one workload run needs around its set-ups.
type serveRun struct {
	cfg   runConfig
	mixed bool
	rep   *report
	chk   *checker

	setupS  []float64
	fillS   []float64
	tunedMs []float64 // summed catalog network_seconds per set-up, in ms
}

// newSetup sets a server up with the catalog, its engine seeds drawn from
// seed, and books its set-up answers.
func (ss *serveRun) newSetup(seed int64) (*setup, error) {
	nets, err := catalogNetworks(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	st, err := setUp(ss.mixed, nets)
	if err != nil {
		return nil, err
	}
	ss.setupS = append(ss.setupS, st.took.Seconds())
	ss.fillS = append(ss.fillS, st.fill.Seconds())
	var tuned float64
	for _, r := range st.replies {
		resp, _ := ss.checkReply(r)
		st.first = append(st.first, resp)
		tuned += resp.NetworkSeconds
	}
	ss.tunedMs = append(ss.tunedMs, tuned*1e3)
	return st, nil
}

// checkReply books one answer as attempted, runs the per-answer checks and
// returns the decoded answer and whether it passed.
func (ss *serveRun) checkReply(r reply) (repro.TuneResponse, bool) {
	ss.rep.attempted++
	if r.code != http.StatusOK {
		ss.rep.fail("%s: status %d: %s", r.net.name, r.code, strings.TrimSpace(r.body))
		return repro.TuneResponse{}, false
	}
	resp, err := decodeResponse(r.body)
	if err != nil {
		ss.rep.fail("%s: undecodable answer: %v", r.net.name, err)
		return resp, false
	}
	if p := ss.chk.response(r.net.layers, resp); p != "" {
		ss.rep.fail("%s: %s", r.net.name, p)
		return resp, false
	}
	return resp, true
}

// checkTimed runs the correctness gate over the timed phase's answers and
// returns which of them passed.
func (ss *serveRun) checkTimed(st *setup, replies []reply) []bool {
	ok := make([]bool, len(replies))
	for i, r := range replies {
		resp, pass := ss.checkReply(r)
		if pass && r.net.catalog >= 0 {
			if p := sameVerdicts(resp, st.first[r.net.catalog]); p != "" {
				ss.rep.fail("%s repeated: %s", r.net.name, p)
				pass = false
			} else if !allShared(resp) {
				ss.rep.fail("%s repeated: a cached network ran a search", r.net.name)
				pass = false
			}
		}
		ok[i] = pass
	}
	return ok
}

// phase is one timed phase's measurements.
type phase struct {
	hitMs, coldMs []float64
	lateMs        []float64
	calls         int
	elapsed       time.Duration
	heapMB        float64

	// Counters read from outside over the phase.
	requests, batches, verdicts, analytic float64
	hits, misses                          int64
	entriesStart, entriesEnd              int
	measured                              int64
	colds                                 int
	mallocs                               uint64
	gcs                                   uint32
}

// counters brackets a timed phase with the server's public counters.
type counters struct {
	metrics  map[string]float64
	stats    autotune.CacheStats
	measured int64
	mem      runtime.MemStats
}

func readCounters(s *server) counters {
	c := counters{metrics: s.metrics(), stats: s.cfg.Cache.Stats(), measured: s.measured.Load()}
	runtime.ReadMemStats(&c.mem)
	return c
}

func (p *phase) setCounters(a, b counters) {
	p.requests = b.metrics["tuned_requests_total"] - a.metrics["tuned_requests_total"]
	p.batches = b.metrics["tuned_batches_total"] - a.metrics["tuned_batches_total"]
	p.verdicts = b.metrics["tuned_verdicts_total"] - a.metrics["tuned_verdicts_total"]
	p.analytic = b.metrics["tuned_verdicts_total:analytic"] - a.metrics["tuned_verdicts_total:analytic"]
	p.hits = b.stats.Hits - a.stats.Hits
	p.misses = b.stats.Misses - a.stats.Misses
	p.entriesStart, p.entriesEnd = a.stats.Entries, b.stats.Entries
	p.measured = b.measured - a.measured
	p.mallocs = b.mem.Mallocs - a.mem.Mallocs
	p.gcs = b.mem.NumGC - a.mem.NumGC
}

// replayer re-runs, from outside the server, the layer calls one POST made
// inside it, timing each as a replayed child of the ServeHTTP span:
// decoding (repro.ParseNetworkDescription), the sweep
// (autotune.TuneNetworkContext on the server's cache with the request's
// options, whose autotune.NewSpace calls are replayed as its child) and
// encoding (repro.DescribeVerdicts plus the JSON encoding of the answer).
type replayer struct {
	cfg      tuned.Config
	measured atomic.Int64 // measurements replays made; a hit makes none
}

func (rp *replayer) replay(tr *tracer, req int, start, end time.Time, body []byte) error {
	root := tr.record("tuned.ServeHTTP", 0, req, false, start, end)

	t0 := time.Now()
	desc, err := repro.ParseNetworkDescription(body)
	t1 := time.Now()
	tr.record("repro.ParseNetworkDescription", root, req, true, t0, t1)
	if err != nil {
		return err
	}
	arch, err := memsim.ByName(desc.Arch)
	if err != nil {
		return err
	}
	layers := desc.NetworkLayers()
	opts := rp.cfg.Tune
	opts.OnMeasure = func() { rp.measured.Add(1) }
	if o := desc.Options; o != nil {
		if o.Budget > 0 {
			opts.Budget = o.Budget
		}
		if o.Seed != 0 {
			opts.Seed = o.Seed
		}
	}
	no := autotune.NetworkOptions{Tune: opts, Workers: rp.cfg.LayerWorkers, Winograd: rp.cfg.Winograd,
		Kinds: rp.cfg.Kinds, Warm: rp.cfg.Warm, Resume: rp.cfg.Resume,
		AnalyticFallback: rp.cfg.AnalyticOverflow}

	t2 := time.Now()
	verdicts, err := autotune.TuneNetworkContext(context.Background(), arch, layers, rp.cfg.Cache, no)
	t3 := time.Now()
	sweep := tr.record("autotune.TuneNetworkContext", root, req, true, t2, t3)
	if err != nil {
		return err
	}
	t4 := time.Now()
	built := make(map[verdictKey]bool)
	for _, l := range layers {
		for _, k := range autotune.CandidateKinds(l.Shape, no.Winograd, no.Kinds) {
			key := verdictKey{kind: k, shape: l.Shape}
			if built[key] {
				continue
			}
			built[key] = true
			if _, err := autotune.NewSpace(l.Shape, arch, k, defaultE(k), true); err != nil && k == autotune.Direct {
				return err
			}
		}
	}
	t5 := time.Now()
	tr.record("autotune.NewSpace", sweep, req, true, t4, t5)

	t6 := time.Now()
	resp := repro.TuneResponse{Arch: arch.Name, Verdicts: repro.DescribeVerdicts(verdicts),
		NetworkSeconds: autotune.NetworkSeconds(verdicts)}
	_, err = json.Marshal(resp)
	t7 := time.Now()
	tr.record("repro.encode", root, req, true, t6, t7)
	return err
}

// runServeHit is the serve-hit workload: a closed loop of clients
// re-POSTing the cached catalog networks, so every request is a full cache
// hit.
func runServeHit(cfg runConfig) (*report, error) {
	return runServe(cfg, false)
}

// runServeMixed is the serve-mixed workload: an open loop at mixedRate in
// which one request in mixedNovelEvery is a novel two-layer network and
// the rest repeat cached catalog networks.
func runServeMixed(cfg runConfig) (*report, error) {
	return runServe(cfg, true)
}

func runServe(cfg runConfig, mixed bool) (*report, error) {
	// Every set-up tunes the catalog at its own engine seeds.
	rng := rand.New(rand.NewSource(cfg.seed))
	var setupSeeds []int64
	for i := 0; i < setups; i++ {
		setupSeeds = append(setupSeeds, rng.Int63())
	}
	planSeed := rng.Int63()
	ss := &serveRun{cfg: cfg, mixed: mixed, rep: &report{}, chk: newChecker(serveArch)}

	// The last set-up serves the timed phase. A traced run measures the
	// phase twice, untraced then traced, each on its own set-up and with
	// the same request plan, so the second phase's server has seen no more
	// traffic than the first's.
	var untraced, traced *phase
	var tr *tracer
	rp := &replayer{}
	for i, seed := range setupSeeds {
		st, err := ss.newSetup(seed)
		if err != nil {
			return nil, err
		}
		var plan, probe []*network
		if i >= setups-2 {
			prng := rand.New(rand.NewSource(planSeed))
			if mixed {
				plan, err = mixedPlan(prng, st.nets, cfg.seconds)
			} else {
				plan = hitPlan(prng, st.nets)
				probe, err = coldProbe(prng, st.nets)
			}
			if err != nil {
				_ = st.srv.Close() // no state file: Close only stops workers
				return nil, err
			}
		}
		last := i == setups-1
		switch {
		case cfg.trace && i == setups-2:
			untraced = ss.timed(st, plan, probe, nil, nil)
		case last && cfg.trace:
			tr = newTracer()
			rp.cfg = st.cfg
			traced = ss.timed(st, plan, probe, tr, rp)
		case last:
			untraced = ss.timed(st, plan, probe, nil, nil)
		}
		if err := st.srv.Close(); err != nil {
			return nil, err
		}
	}

	rep := ss.rep
	rep.e2e = ss.e2eEntries(untraced)
	if cfg.trace {
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
		if n := rp.measured.Load(); n > 0 {
			rep.fail("replayed sweeps of answered requests made %d measurements; they must all be cache hits", n)
		}
		rep.layer = ss.layerEntries(untraced, tr)
		rep.layer = append(rep.layer, ungatedEntries(rep.e2e)...)
		rep.layer = append(rep.layer, overheadEntries(rep.e2e, ss.e2eEntries(traced))...)
	}
	return rep, nil
}

// hitPlan is serve-hit's request sequence: the catalog in a seeded order,
// long enough for any closed-loop run.
func hitPlan(rng *rand.Rand, nets []network) []*network {
	plan := make([]*network, 1<<16)
	for i := range plan {
		plan[i] = &nets[rng.Intn(len(nets))]
	}
	return plan
}

// novelNetwork draws a novel two-layer network from gen, at an engine seed
// from rng.
func novelNetwork(gen *shapeGen, rng *rand.Rand, name string) (*network, error) {
	layers, err := gen.network()
	if err != nil {
		return nil, err
	}
	net, err := newNetwork(name, layers, engineSeed(rng), -1)
	return &net, err
}

// mixedPlan is serve-mixed's request sequence: in every block of
// mixedNovelEvery requests, one at a seeded position is a novel two-layer
// network and the others repeat seeded catalog networks.
func mixedPlan(rng *rand.Rand, nets []network, d time.Duration) ([]*network, error) {
	gen := newShapeGen(rng.Int63(), catalogShapes(nets))
	n := int(d.Seconds() * mixedRate)
	plan := make([]*network, n)
	for b := 0; b < n; b += mixedNovelEvery {
		novel := b + rng.Intn(mixedNovelEvery)
		for i := b; i < b+mixedNovelEvery && i < n; i++ {
			if i != novel {
				plan[i] = &nets[rng.Intn(len(nets))]
				continue
			}
			net, err := novelNetwork(gen, rng, fmt.Sprintf("novel-%d", i))
			if err != nil {
				return nil, err
			}
			plan[i] = net
		}
	}
	return plan, nil
}

// coldProbe is the novel networks serve-hit POSTs one after another once
// its timed phase is over, to time the cold path of the same server.
// catalogShapes keeps them clear of the cached catalog.
func coldProbe(rng *rand.Rand, nets []network) ([]*network, error) {
	gen := newShapeGen(rng.Int63(), catalogShapes(nets))
	probe := make([]*network, coldProbeRequests)
	for i := range probe {
		var err error
		if probe[i], err = novelNetwork(gen, rng, fmt.Sprintf("probe-%d", i)); err != nil {
			return nil, err
		}
	}
	return probe, nil
}

// timed runs one timed phase on a set-up server — serve-hit's followed by
// its cold probe — then the correctness gate over every answer. With a
// tracer, every answered request's layer calls are replayed and recorded.
func (ss *serveRun) timed(st *setup, plan, probe []*network, tr *tracer, rp *replayer) *phase {
	var mu sync.Mutex
	replies := make([]reply, 0, 4096)
	idx := make([]int, 0, 4096) // request index per reply
	var replayErrs []string
	send := func(i int, net *network) time.Time {
		t0 := time.Now()
		code, body := st.post(net.body)
		t1 := time.Now()
		var replayErr error
		if tr != nil {
			replayErr = rp.replay(tr, i, t0, t1, net.body)
		}
		mu.Lock()
		replies = append(replies, reply{net: net, code: code, body: body})
		idx = append(idx, i)
		if replayErr != nil {
			replayErrs = append(replayErrs, fmt.Sprintf("replay of %s: %v", net.name, replayErr))
		}
		mu.Unlock()
		return t1
	}
	sendPlan := func(i int) time.Time { return send(i, plan[i%len(plan)]) }

	p := &phase{}
	runtime.GC()
	before := readCounters(st.server)
	var lat []float64 // by request index
	if ss.mixed {
		timings := openLoop(mixedRate, ss.cfg.seconds, mixedMaxInflight, sendPlan)
		for _, t := range timings {
			lat = append(lat, ms(t.latency()))
			p.lateMs = append(p.lateMs, ms(t.late()))
			p.elapsed = max(p.elapsed, t.done.Sub(timings[0].due))
		}
	} else {
		var durs []time.Duration
		durs, p.elapsed = closedLoop(min(hitClients, runtime.NumCPU()), ss.cfg.seconds, sendPlan)
		for _, d := range durs {
			lat = append(lat, ms(d))
		}
	}
	p.calls = len(lat)
	after := readCounters(st.server)
	p.heapMB = heapMB()
	p.setCounters(before, after)
	tr = nil // the probe is not part of the traced phase
	for _, net := range probe {
		t0 := time.Now()
		lat = append(lat, ms(send(len(lat), net).Sub(t0)))
	}

	for _, e := range replayErrs {
		ss.rep.fail("%s", e)
	}
	ok := ss.checkTimed(st, replies)
	for j, r := range replies {
		switch {
		case !ok[j]:
		case r.net.catalog >= 0:
			p.hitMs = append(p.hitMs, lat[idx[j]])
		default:
			p.coldMs = append(p.coldMs, lat[idx[j]])
			if idx[j] < p.calls {
				p.colds++
			}
		}
	}
	return p
}

// e2eEntries are the end-to-end metrics of a serving run. Cold latencies
// are the novel requests: serve-mixed's timed phase, serve-hit's cold
// probe.
func (ss *serveRun) e2eEntries(p *phase) []entry {
	return []entry{
		{name: "setup_s", unit: "s", value: median(ss.setupS), n: len(ss.setupS)},
		percentileEntry("hit_p50_ms", p.hitMs, 0.5),
		tail(percentileEntry("hit_p99_ms", p.hitMs, 0.99)),
		percentileEntry("cold_p50_ms", p.coldMs, 0.5),
		tail(percentileEntry("cold_p90_ms", p.coldMs, 0.9)),
		{name: "throughput_rps", unit: "req/s", value: float64(p.calls) / p.elapsed.Seconds(), n: p.calls},
		{name: "sweep_s", unit: "s", value: median(ss.fillS), n: len(ss.fillS), note: "catalog cache fill in set-up"},
		{name: "tuned_network_ms", unit: "ms", value: median(ss.tunedMs), n: len(ss.tunedMs), note: "catalog, median over set-ups"},
		{name: "heap_mb", unit: "MB", value: p.heapMB},
	}
}

// layerEntries are the per-layer metrics of a serving run: counters from
// the untraced phase, span times from the traced one.
func (ss *serveRun) layerEntries(p *phase, tr *tracer) []entry {
	st := tr.stats()
	serve := st["tuned.ServeHTTP"]
	geo, viol := ss.chk.boundStats()
	var lateP99 float64
	if ss.mixed {
		lateP99, _ = percentile(p.lateMs, 0.99)
	}
	out := []entry{
		{name: "repro.decode_us", unit: "us", value: st["repro.ParseNetworkDescription"].meanUS(), n: serve.count},
		{name: "repro.encode_us", unit: "us", value: st["repro.encode"].meanUS(), n: serve.count},
		{name: "tuned.serve_us", unit: "us", value: serve.meanUS(), n: serve.count},
		{name: "tuned.self_us", unit: "us", value: serve.meanSelfUS(), n: serve.count},
		{name: "tuned.batch_merge", unit: "ratio", value: ratio(p.requests, p.batches)},
		{name: "tuned.analytic_share", unit: "ratio", value: ratio(p.analytic, p.verdicts)},
		{name: "autotune.sweep_us", unit: "us", value: st["autotune.TuneNetworkContext"].meanUS(), n: serve.count},
		{name: "autotune.space_build_us", unit: "us", value: st["autotune.NewSpace"].meanUS(), n: serve.count},
		{name: "autotune.cache_entries_start", unit: "count", value: float64(p.entriesStart)},
		{name: "autotune.cache_entries", unit: "count", value: float64(p.entriesEnd)},
		{name: "autotune.cache_hit_ratio", unit: "ratio", value: ratio(float64(p.hits), float64(p.hits+p.misses))},
		{name: "autotune.measurements", unit: "count", value: ratio(float64(p.measured), float64(p.colds)), n: p.colds},
		{name: "autotune.engine_self_ms", unit: "ms"},
		{name: "autotune.to5pct_ratio", unit: "ratio"},
		{name: "conv.measure_us", unit: "us"},
		{name: "conv.measure_calls", unit: "count"},
		{name: "bounds.gap_geomean", unit: "ratio", value: geo},
		{name: "bounds.violations", unit: "count", value: float64(viol)},
		{name: "loadgen.late_p99_ms", unit: "ms", value: lateP99, n: len(p.lateMs)},
		{name: "go.allocs_per_req", unit: "count", value: ratio(float64(p.mallocs), float64(p.calls)), n: p.calls},
		{name: "go.gc_cycles", unit: "count", value: float64(p.gcs)},
		{name: "error_rate", unit: "ratio", value: ratio(float64(ss.rep.failed), float64(ss.rep.attempted)), n: ss.rep.attempted},
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadEntries are the tracing overhead per end-to-end metric: the
// traced phase's value minus the untraced phase's.
func overheadEntries(untraced, traced []entry) []entry {
	out := make([]entry, len(untraced))
	for i, u := range untraced {
		out[i] = entry{name: "overhead." + u.name, unit: u.unit, value: traced[i].value - u.value}
	}
	return out
}
