// Command tuned is the tuning-as-a-service daemon: a long-running HTTP
// server wrapping the network auto-tuner.
//
//	tuned -addr :9911 -state tuned.cache -resume
//
// Clients POST a JSON network description to /v1/tune and get per-layer
// verdicts back; GET /healthz serves the cache and admission counters, and
// GET /metrics the same observability as a Prometheus text exposition.
// Identical in-flight requests collapse into one search, concurrent
// distinct networks merge into one transfer pool, and SIGTERM flushes the
// cache (verdicts plus engine state) to -state so the next boot replays
// instead of re-tuning.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/tuned"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9911", "listen address")
	state := flag.String("state", "", "cache state file: loaded on boot, flushed on shutdown")
	resume := flag.Bool("resume", false, "resume cached searches whose persisted budget is short of the requested one")
	batchWindow := flag.Duration("batch-window", 20*time.Millisecond, "admission window within which concurrent requests merge into one tuning batch")
	maxInflight := flag.Int64("max-inflight", 0, "max in-flight measurement budget before requests are shed with 429 (0 = unlimited)")
	cacheEntries := flag.Int("cache-entries", 0, "max cached search keys before LRU eviction (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "approximate max cache size in bytes before LRU eviction (0 = unlimited)")
	cacheTTL := flag.Duration("cache-ttl", 0, "expire cache entries unused for this long (0 = never)")
	budget := flag.Int("budget", 0, "default per-layer measurement budget (0 = engine default)")
	seed := flag.Int64("seed", 0, "default engine seed")
	workers := flag.Int("workers", 0, "measurement workers per search (0 = GOMAXPROCS)")
	layerWorkers := flag.Int("layer-workers", 0, "concurrent per-layer searches per batch (0 = GOMAXPROCS)")
	winograd := flag.Bool("winograd", true, "also tune the fused Winograd dataflow where it applies")
	warm := flag.Bool("warm", true, "warm-start searches from tuned relatives (cross-request transfer)")
	requestTimeout := flag.Duration("request-timeout", 0, "deadline per tuning batch; past it, responses carry best-so-far verdicts marked partial (0 = none)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "flush -state in the background this often, not only at shutdown (0 = shutdown only)")
	measureRetries := flag.Int("measure-retries", 0, "measurement attempts per config before quarantine (0 or 1 = no retries)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base wait before a measurement retry; doubles per retry with seeded jitter")
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, "cap on the exponential retry backoff (0 = uncapped)")
	noiseThreshold := flag.Float64("noise-threshold", 0, "re-measure readings within this relative fraction of the I/O-bound floor and take the median (0 = off)")
	noiseMedian := flag.Int("noise-median", 0, "readings gathered by the noise defense before taking the median (default 3)")
	chaosFailRate := flag.Float64("chaos-fail-rate", 0, "inject seeded transient measurement failures at this rate (testing only)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed of the fault-injection schedule")
	chaosMaxConsecutive := flag.Int("chaos-max-consecutive", 2, "cap on injected consecutive failures per config (keep below -measure-retries)")
	analyticOverflow := flag.Bool("analytic-overflow", false, "serve requests beyond -max-inflight from the instant analytic tier (200, tier \"analytic\") instead of shedding with 429")
	breakerThreshold := flag.Float64("breaker-threshold", 0, "windowed measurement failure rate that trips the circuit breaker into analytic-only service (0 = no breaker)")
	breakerWindow := flag.Int("breaker-window", 0, "sliding window of measurement outcomes the breaker rate is computed over (default 32)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before half-open probe measurements (default 5s)")
	breakerProbes := flag.Int("breaker-probes", 0, "measurements a half-open breaker admits; one success restores service (default 3)")
	refineWorkers := flag.Int("refine-workers", 0, "background workers measuring analytically-answered requests once budget frees up (default 1)")
	peers := flag.String("peers", "", "comma-separated replica addresses forming a cluster (all replicas run the identical list; empty = standalone)")
	advertise := flag.String("advertise", "", "this replica's address in -peers (required with -peers)")
	replicas := flag.Int("replicas", 0, "replication factor: owners per request key (default 2, capped at the peer count)")
	hedgeAfter := flag.Duration("hedge-after", 0, "wait on the primary owner before hedging a forwarded request to the secondary (default 100ms)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health-check cadence; backs off exponentially while a peer is down (default 1s)")
	flag.Parse()

	clusterCfg, err := flagConfig{
		budget: *budget, seed: *seed, workers: *workers, layerWorkers: *layerWorkers,
		refineWorkers: *refineWorkers, maxInflight: *maxInflight,
		cacheEntries: *cacheEntries, cacheBytes: *cacheBytes, cacheTTL: *cacheTTL,
		batchWindow: *batchWindow, requestTimeout: *requestTimeout,
		snapshotInterval: *snapshotInterval, measureRetries: *measureRetries,
		retryBackoff: *retryBackoff, retryBackoffMax: *retryBackoffMax,
		noiseThreshold: *noiseThreshold, noiseMedian: *noiseMedian,
		chaosFailRate: *chaosFailRate, chaosMaxConsecutive: *chaosMaxConsecutive,
		breakerThreshold: *breakerThreshold, breakerWindow: *breakerWindow,
		breakerCooldown: *breakerCooldown, breakerProbes: *breakerProbes,
		peers: *peers, advertise: *advertise, replicas: *replicas,
		hedgeAfter: *hedgeAfter, probeInterval: *probeInterval,
	}.validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := autotune.DefaultOptions()
	if *budget > 0 {
		opts.Budget = *budget
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Retry = autotune.RetryPolicy{
		MaxAttempts:    *measureRetries,
		BackoffBase:    *retryBackoff,
		BackoffMax:     *retryBackoffMax,
		NoiseThreshold: *noiseThreshold,
		MedianK:        *noiseMedian,
	}

	cache := autotune.NewCache()
	if *cacheEntries > 0 || *cacheBytes > 0 || *cacheTTL > 0 {
		cache.SetEviction(autotune.EvictionPolicy{
			MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, TTL: *cacheTTL})
	}

	srv, err := tuned.New(tuned.Config{
		Cache: cache, Tune: opts,
		LayerWorkers: *layerWorkers, Winograd: *winograd, Warm: *warm, Resume: *resume,
		BatchWindow: *batchWindow, MaxInflight: *maxInflight,
		StatePath: *state, SnapshotInterval: *snapshotInterval,
		RequestTimeout: *requestTimeout,
		Chaos: chaos.Config{Seed: *chaosSeed, FailRate: *chaosFailRate,
			MaxConsecutive: *chaosMaxConsecutive},
		AnalyticOverflow: *analyticOverflow,
		Breaker: autotune.BreakerConfig{Threshold: *breakerThreshold,
			Window: *breakerWindow, Cooldown: *breakerCooldown, Probes: *breakerProbes},
		RefineWorkers: *refineWorkers,
		Cluster:       clusterCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A tuning response can legitimately take minutes (the engine runs
	// inside the request), so WriteTimeout must outlast the batch: with a
	// request timeout it is that plus slack, otherwise generous. The read
	// side is tight — requests are small JSON — so a slow or stalled client
	// cannot hold a connection open indefinitely.
	writeTimeout := 10 * time.Minute
	if *requestTimeout > 0 {
		writeTimeout = *requestTimeout + time.Minute
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("tuned: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "tuned: shutdown: %v\n", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tuned: state flush: %v\n", err)
		os.Exit(1)
	}
	if *state != "" {
		fmt.Printf("tuned: state flushed to %s\n", *state)
	}
}
