package tuned

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/shapes"
)

// Config configures a Server. The zero value is served with defaults:
// fresh cache, engine default options, warm-starting on, a 20ms admission
// window, no admission cap, no persistence.
type Config struct {
	// Cache is the verdict store and dedup point; nil makes a fresh one.
	// Install an autotune.EvictionPolicy on it (or via cmd/tuned's flags)
	// for the bounded long-running regime.
	Cache *autotune.Cache
	// Tune holds the per-layer engine defaults; requests may override
	// Budget and Seed within the wire limits. A zero value uses
	// autotune.DefaultOptions.
	Tune autotune.Options
	// LayerWorkers is how many deduplicated searches of one batch tune
	// concurrently (default GOMAXPROCS, see autotune.NetworkOptions).
	LayerWorkers int
	// Winograd is the default for also tuning the fused Winograd dataflow
	// where it applies (requests may override); each request folds the
	// resolved flag into its candidate-kind set (see tuneRequest).
	Winograd bool
	// Kinds is the default extra candidate-kind set of the per-layer kernel
	// choice (requests may override via options.kinds); Direct is always
	// tuned.
	Kinds []autotune.Kind
	// Warm enables cross-request warm-starting through the batcher's
	// merged transfer pool.
	Warm bool
	// Resume re-enters cached searches whose persisted state is shorter
	// than the requested budget instead of returning them as-is.
	Resume bool
	// BatchWindow is the admission window: requests arriving within it
	// merge into one tuning batch. 0 means one batch per request.
	BatchWindow time.Duration
	// MaxInflight caps the summed worst-case fresh-measurement budget of
	// admitted requests; beyond it, requests get 429 + Retry-After
	// (0 = unlimited).
	MaxInflight int64
	// StatePath, when set, is the cache state file: loaded on New — with
	// crash salvage: a file torn by a mid-write kill yields its intact
	// entries and is set aside as .corrupt — and flushed by Close and the
	// snapshot timer. The flush is atomic (temp + fsync + rename), so no
	// crash window loses the previous complete snapshot.
	StatePath string
	// SnapshotInterval, when > 0 together with StatePath, flushes the cache
	// state in the background every interval, so a crash loses at most one
	// interval of verdicts instead of everything since boot.
	SnapshotInterval time.Duration
	// RequestTimeout, when > 0, bounds each tuning batch's engine time.
	// Searches still running at the deadline stop after their current
	// measurement and the response carries best-so-far verdicts marked
	// "partial": true; the truncated engine state is persisted, so
	// re-POSTing the identical request continues the search.
	RequestTimeout time.Duration
	// Chaos, when enabled, wraps every search's measurer in the seeded
	// fault injector — the harness behind the chaos e2e suite and CI job.
	// Production deployments leave it zero.
	Chaos chaos.Config
	// AnalyticOverflow degrades overload instead of shedding it: a request
	// beyond the admission budget is answered immediately from the
	// measurement-free analytic tier (200 with tier "analytic") instead of
	// 429, and enqueued on the background refinement queue, which measures
	// it once budget frees up and upgrades the cache in place.
	AnalyticOverflow bool
	// Breaker, when its Threshold is > 0, arms the measurement circuit
	// breaker around every search's measurer: past the windowed
	// failure-rate threshold the server answers from the analytic tier
	// only, until half-open probe measurements restore service.
	Breaker autotune.BreakerConfig
	// RefineWorkers is how many background workers drain the refinement
	// queue (default 1; the queue exists whenever AnalyticOverflow or the
	// breaker is configured).
	RefineWorkers int
	// Cluster, when its peer list is non-empty, joins this daemon to a
	// replicated shard cluster (see internal/cluster and cluster.go): a
	// consistent-hash ring routes each request key to its owning replicas,
	// non-owners proxy with hedged failover, owners replicate verdicts, and
	// writes for down peers park as hinted handoff. Zero value = standalone.
	Cluster cluster.Config
}

// Server is the tuning service: an http.Handler plus the shared tuning
// state behind it.
type Server struct {
	cfg   Config
	cache *autotune.Cache
	batch *batcher
	adm   *admission
	mux   *http.ServeMux
	start time.Time

	closed   atomic.Bool
	measured atomic.Int64 // fresh measurements performed since boot
	requests atomic.Int64 // POST /v1/tune requests accepted for tuning
	rejected atomic.Int64 // requests shed by admission control
	batches  atomic.Int64 // tuning batches run

	// Fault-tolerance observability (see Health).
	retries      atomic.Int64 // transient-failure measurement retries
	quarantined  atomic.Int64 // configs quarantined after repeated failures
	partials     atomic.Int64 // responses cut short by RequestTimeout
	salvaged     atomic.Bool  // boot recovered state from a damaged file
	lastSnapshot atomic.Int64 // unix nanos of the last successful flush (0 = never)
	lastFlushErr atomic.Pointer[string]

	injector *chaos.Injector // nil unless Config.Chaos is enabled

	// Graceful degradation (degrade.go): the breaker guarding the
	// measurement seam, the per-arch analytic tier, the background
	// refinement queue, and the provenance counters behind /metrics.
	breaker  *autotune.Breaker // nil unless Config.Breaker is armed
	degraded bool              // any degradation trigger configured

	anMu     sync.Mutex
	analytic map[string]*autotune.AnalyticDSE // per arch name
	calStamp map[string]int                   // cache length at last calibration

	refineCh      chan *refineJob
	refineStop    chan struct{}
	refineWG      sync.WaitGroup
	refineMu      sync.Mutex
	refinePending map[string]bool
	refineJobs    map[string]tuneRequest // pending jobs, persisted by flushAux
	refinedMu     sync.Mutex
	refinedKeys   map[string]bool

	verdictMu       sync.Mutex       // guards verdictByTK
	verdictByTK     map[string]int64 // verdicts served by (tier, kind): /metrics and /healthz
	refineDone      atomic.Int64     // refinement jobs that measured their network
	refineDropped   atomic.Int64     // jobs dropped on a full queue
	refineFailed    atomic.Int64     // jobs whose measured sweep errored
	breakerOpened   atomic.Int64     // transitions into each breaker state
	breakerHalfOpen atomic.Int64
	breakerClosed   atomic.Int64

	// cluster is the replicated-shard runtime (cluster.go); nil standalone.
	cluster *clusterState

	snapStop chan struct{}
	snapDone chan struct{}
	stopOnce sync.Once
}

// New builds a Server, loading persisted cache state from cfg.StatePath if
// the file exists.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		cfg.Cache = autotune.NewCache()
	}
	if cfg.Tune.Budget == 0 {
		def := autotune.DefaultOptions()
		def.MeasureLatency = cfg.Tune.MeasureLatency
		def.Workers = cfg.Tune.Workers
		def.Retry = cfg.Tune.Retry
		cfg.Tune = def
	}
	s := &Server{cfg: cfg, cache: cfg.Cache, adm: newAdmission(cfg.MaxInflight), start: time.Now()}
	// Every fresh measurement of every request funnels through this hook;
	// it is the denominator of the dedup story (/healthz reports it, the
	// e2e suite pins it). The retry/quarantine hooks feed the same health
	// report so an orchestrator sees a flaky measurement backend.
	prev := cfg.Tune.OnMeasure
	s.cfg.Tune.OnMeasure = func() {
		s.measured.Add(1)
		if prev != nil {
			prev()
		}
	}
	prevRetry := cfg.Tune.OnRetry
	s.cfg.Tune.OnRetry = func() {
		s.retries.Add(1)
		if prevRetry != nil {
			prevRetry()
		}
	}
	prevQuar := cfg.Tune.OnQuarantine
	s.cfg.Tune.OnQuarantine = func() {
		s.quarantined.Add(1)
		if prevQuar != nil {
			prevQuar()
		}
	}
	if cfg.Chaos.Enabled() {
		s.injector = chaos.New(cfg.Chaos)
	}
	if cfg.Breaker.Enabled() {
		bcfg := cfg.Breaker
		prevTrans := bcfg.OnTransition
		bcfg.OnTransition = func(from, to autotune.BreakerState) {
			switch to {
			case autotune.BreakerOpen:
				s.breakerOpened.Add(1)
			case autotune.BreakerHalfOpen:
				s.breakerHalfOpen.Add(1)
			case autotune.BreakerClosed:
				s.breakerClosed.Add(1)
			}
			if prevTrans != nil {
				prevTrans(from, to)
			}
		}
		s.breaker = autotune.NewBreaker(bcfg)
	}
	s.degraded = cfg.AnalyticOverflow || s.breaker != nil || cfg.RequestTimeout > 0
	s.verdictByTK = make(map[string]int64)
	s.analytic = make(map[string]*autotune.AnalyticDSE)
	s.calStamp = make(map[string]int)
	s.refinedKeys = make(map[string]bool)
	if cfg.AnalyticOverflow || s.breaker != nil {
		workers := cfg.RefineWorkers
		if workers < 1 {
			workers = 1
		}
		s.refineCh = make(chan *refineJob, refineQueueCap)
		s.refineStop = make(chan struct{})
		s.refinePending = make(map[string]bool)
		s.refineJobs = make(map[string]tuneRequest)
		for i := 0; i < workers; i++ {
			s.refineWG.Add(1)
			go s.refineLoop()
		}
	}
	if cfg.StatePath != "" {
		if _, salvaged, err := s.cache.RecoverFile(cfg.StatePath); err != nil {
			return nil, fmt.Errorf("tuned: state %s: %w", cfg.StatePath, err)
		} else if salvaged {
			s.salvaged.Store(true)
		}
	}
	s.batch = newBatcher(cfg.BatchWindow, s.runBatch)
	if cfg.StatePath != "" && cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.initCluster(mux)
	if cfg.StatePath != "" {
		// The auxiliary snapshots ride alongside the cache state file:
		// parked handoff survives a crash, and the refinement backlog is
		// replayed so analytically-answered clients still get their measured
		// upgrade after a restart.
		s.restoreHandoff()
		s.restoreRefineQueue()
	}
	s.startCluster()
	s.mux = mux
	return s, nil
}

// ServeHTTP makes the server mountable directly into httptest and
// http.Server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the snapshot timer and flushes the cache state (verdicts
// plus engine state, format v2) to StatePath, so the next boot resumes
// where this process stopped. It is the graceful-shutdown half of the
// persistence seam; call it after the HTTP server has drained.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.stopOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		if s.refineStop != nil {
			// Stop the refinement workers (a job mid-measure finishes, a
			// job mid-wait abandons) before the final flush so its snapshot
			// includes their last completed work.
			close(s.refineStop)
			s.refineWG.Wait()
		}
		// Stop probing and wait out in-flight replication pushes before the
		// final flush, so entries that fail their push are parked as handoff
		// in time to be persisted.
		s.stopCluster()
	})
	if s.cfg.StatePath == "" {
		return nil
	}
	return s.flushState()
}

// flushState writes one atomic snapshot — the cache plus the auxiliary
// handoff and refinement-backlog files — and records its outcome for
// /healthz.
func (s *Server) flushState() error {
	err := s.cache.SaveFile(s.cfg.StatePath)
	if err == nil {
		err = s.flushAux()
	}
	if err != nil {
		msg := err.Error()
		s.lastFlushErr.Store(&msg)
		return err
	}
	s.lastFlushErr.Store(nil)
	s.lastSnapshot.Store(time.Now().UnixNano())
	return nil
}

// snapshotLoop is the timed background persistence: one atomic flush per
// SnapshotInterval, so a crash loses at most one interval of verdicts. A
// failing flush is recorded (and surfaced on /healthz) but does not stop
// the loop — disk pressure may clear.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.flushState()
		case <-s.snapStop:
			return
		}
	}
}

// Measurements reports the fresh measurements performed since boot.
func (s *Server) Measurements() int64 { return s.measured.Load() }

// runBatch tunes one admission round: per mergeable group, one TuneNetwork
// call over the concatenated layers. Groups run concurrently — they share
// nothing but the (concurrency-safe) cache. With RequestTimeout set, each
// group's engine time is deadline-bounded from the moment its batch runs;
// the deadline is per group, not per request, because a group's searches
// are shared across every client merged into it.
func (s *Server) runBatch(jobs []*tuneJob) {
	s.batches.Add(1)
	groups := groupJobs(jobs)
	done := make(chan struct{}, len(groups))
	for _, g := range groups {
		g := g
		go func() {
			ctx := context.Background()
			if s.cfg.RequestTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
				defer cancel()
			}
			runGroup(ctx, s.cache, g)
			done <- struct{}{}
		}()
	}
	for range groups {
		<-done
	}
	s.cache.EvictExpired()
}

// wrapMeasurer is the NetworkOptions.WrapMeasurer hook, composing the two
// seams on the measurement path: the chaos injector (innermost, emulating
// the fallible backend) and the circuit breaker (outermost, watching the
// failure rate the engine actually sees). nil when neither is configured.
func (s *Server) wrapMeasurer() func(autotune.Kind, shapes.ConvShape, autotune.Measurer) autotune.FallibleMeasurer {
	if s.injector == nil && s.breaker == nil {
		return nil
	}
	return func(kind autotune.Kind, shape shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
		fm := autotune.LiftMeasurer(m)
		if s.injector != nil {
			fm = s.injector.Wrap(chaos.SearchSalt(kind, shape), m)
		}
		return s.breaker.Wrap(fm)
	}
}

// errJSON writes a JSON error body with the given status.
func errJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds POST bodies; a maximal description (512 layers)
// is well under 1 MiB.
const maxRequestBody = 1 << 20

// handleTune is POST /v1/tune: decode and validate the network
// description, route it to its owning replica when clustered, pass
// admission, join the current batch, answer with the verdicts.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		errJSON(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	desc, err := repro.ParseNetworkDescription(body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := s.newTuneRequest(desc)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cluster != nil && s.routeTune(w, r, req) {
		return
	}
	s.serveTune(w, req)
}

// serveTune answers one request from this replica: the breaker check, the
// admission gate, the batched sweep, the response. It is the local half of
// the routing seam — both client requests this replica owns and requests
// peers forward land here.
func (s *Server) serveTune(w http.ResponseWriter, req tuneRequest) {
	// Degradation trigger: a tripped breaker means a measured search could
	// only burn its budget on fast-fails, so answer instantly from the
	// analytic tier and let the refinement queue (and the next half-open
	// probes) bring measured service back.
	if s.breaker.State() == autotune.BreakerOpen {
		s.serveAnalytic(w, req)
		return
	}

	cost := admissionCost(s.cache, req)
	if !s.adm.acquire(cost) {
		if s.cfg.AnalyticOverflow {
			// Degradation trigger: overload. Instead of shedding with 429,
			// the overflow gets the instant analytic answer now and a
			// background refinement slot once budget frees up.
			s.serveAnalytic(w, req)
			return
		}
		s.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		errJSON(w, http.StatusTooManyRequests,
			"measurement budget exhausted (%d in flight, limit %d); retry later",
			s.adm.load(), s.cfg.MaxInflight)
		return
	}
	defer s.adm.release(cost)
	s.requests.Add(1)

	job := &tuneJob{key: req.group(), req: req, opts: s.networkOptions(req), done: make(chan struct{})}
	s.batch.submit(job)
	<-job.done
	if job.err != nil {
		errJSON(w, http.StatusInternalServerError, "%v", job.err)
		return
	}
	s.markTiers(req.arch.Name, job.verdicts)
	if s.cluster != nil {
		// Replicate what the sweep just cached to the key's other owners,
		// off the response path.
		s.replicateRequest(req)
	}
	resp := repro.TuneResponse{Arch: req.arch.Name,
		Verdicts:       repro.DescribeVerdicts(job.verdicts),
		NetworkSeconds: autotune.NetworkSeconds(job.verdicts)}
	allAnalytic := true
	for _, v := range job.verdicts {
		if v.Partial {
			resp.Partial = true
		}
		if v.Tier != autotune.TierAnalytic {
			allAnalytic = false
		}
	}
	if allAnalytic {
		// Every layer fell back to the analytic tier (the breaker tripped
		// mid-run, or the backend died outright): the response is a
		// complete estimate, flagged as such, and worth refining.
		resp.Tier = autotune.TierAnalytic.String()
		s.enqueueRefine(req)
	}
	if resp.Partial {
		s.partials.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// networkOptions assembles the sweep options of one admitted request; with
// any degradation trigger configured the sweep gets the analytic fallback,
// so a layer whose search dies still answers.
func (s *Server) networkOptions(req tuneRequest) autotune.NetworkOptions {
	no := autotune.NetworkOptions{Tune: req.opts, Workers: s.cfg.LayerWorkers,
		Kinds: req.kinds, Warm: s.cfg.Warm, Resume: s.cfg.Resume,
		WrapMeasurer: s.wrapMeasurer()}
	if s.degraded {
		no.AnalyticFallback = true
		no.AnalyticCalibration = s.analyticFor(req.arch).Calibration()
	}
	return no
}

// retryAfterSeconds estimates how long a shed client should back off: the
// in-flight measurement budget times the emulated per-measurement
// round-trip, floored at one second.
func (s *Server) retryAfterSeconds() int64 {
	est := time.Duration(s.adm.load()) * s.cfg.Tune.MeasureLatency
	secs := int64(est / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Health is the /healthz body: liveness plus the cache and admission
// counters that make the dedup/eviction story observable, and the
// fault-tolerance report — snapshot age, last flush error, retry and
// quarantine counters — that lets an orchestrator alert on a daemon that
// is up but no longer persisting, or up but fighting a flaky measurement
// backend.
type Health struct {
	OK             bool                `json:"ok"`
	UptimeSeconds  float64             `json:"uptime_seconds"`
	Cache          autotune.CacheStats `json:"cache"`
	InflightBudget int64               `json:"inflight_budget"`
	Measurements   int64               `json:"measurements"`
	Requests       int64               `json:"requests"`
	Rejected       int64               `json:"rejected"`
	Batches        int64               `json:"batches"`
	// SnapshotAgeSeconds is the age of the last successful state flush;
	// -1 when none has happened yet (or persistence is off). With timed
	// snapshots on, an age far past -snapshot-interval means flushes fail.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// LastFlushError is the most recent state-flush failure, cleared by
	// the next successful flush.
	LastFlushError string `json:"last_flush_error,omitempty"`
	// Retries / Quarantined count transient measurement failures absorbed
	// by the engine's retry pipeline (nonzero only with a fallible backend
	// or fault injection).
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
	// PartialResponses counts requests answered best-so-far because they
	// hit -request-timeout.
	PartialResponses int64 `json:"partial_responses"`
	// StateSalvaged is true when boot found a damaged state file and
	// recovered what it could (the remainder is in StatePath+".corrupt").
	StateSalvaged bool `json:"state_salvaged,omitempty"`
	// Breaker is the measurement circuit breaker's state — "closed",
	// "open" (analytic-only service), or "half-open" (probing) — omitted
	// when no breaker is configured.
	Breaker string `json:"breaker,omitempty"`
	// AnalyticVerdicts / RefinedVerdicts count verdicts served from the
	// analytic tier and measured upgrades of previously analytic answers:
	// each is the sum over kinds of /metrics' tuned_verdicts_total series
	// for its tier. Both are omitted while zero, which they stay until
	// degradation machinery is configured.
	AnalyticVerdicts int64 `json:"analytic_verdicts,omitempty"`
	RefinedVerdicts  int64 `json:"refined_verdicts,omitempty"`
	// RefineQueueDepth / RefinedNetworks expose the background refinement
	// queue: jobs waiting, and analytically-answered networks measured so
	// far.
	RefineQueueDepth int   `json:"refine_queue_depth,omitempty"`
	RefinedNetworks  int64 `json:"refined_networks,omitempty"`
	// Cluster is the replicated-shard block — this replica's identity, the
	// peer table with reachability, the hinted-handoff backlog — omitted
	// when the daemon runs standalone.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snapAge := -1.0
	if ns := s.lastSnapshot.Load(); ns > 0 {
		snapAge = time.Since(time.Unix(0, ns)).Seconds()
	}
	flushErr := ""
	if p := s.lastFlushErr.Load(); p != nil {
		flushErr = *p
	}
	h := Health{
		OK:                 !s.closed.Load(),
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Cache:              s.cache.Stats(),
		InflightBudget:     s.adm.load(),
		Measurements:       s.measured.Load(),
		Requests:           s.requests.Load(),
		Rejected:           s.rejected.Load(),
		Batches:            s.batches.Load(),
		SnapshotAgeSeconds: snapAge,
		LastFlushError:     flushErr,
		Retries:            s.retries.Load(),
		Quarantined:        s.quarantined.Load(),
		PartialResponses:   s.partials.Load(),
		StateSalvaged:      s.salvaged.Load(),
		AnalyticVerdicts:   s.verdictsOf(autotune.TierAnalytic),
		RefinedVerdicts:    s.verdictsOf(autotune.TierRefined),
		RefinedNetworks:    s.refineDone.Load(),
		Cluster:            s.clusterHealth(),
	}
	if s.breaker != nil {
		h.Breaker = s.breaker.State().String()
	}
	if s.refineCh != nil {
		h.RefineQueueDepth = len(s.refineCh)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}
