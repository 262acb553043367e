package tuned

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/autotune"
)

// GET /metrics: Prometheus text exposition (format 0.0.4), hand-rolled so
// the daemon keeps its zero-dependency stance. Everything /healthz reports
// as JSON for humans and orchestration probes is here as scrapeable
// counters/gauges for dashboards and alerting, plus the degradation
// observability the issue of the day demands: verdicts by provenance tier,
// breaker state and transition counts, refinement-queue depth.

// metricsWriter accumulates one exposition; each family is HELP + TYPE +
// sample lines.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) family(name, typ, help string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&m.b, "%s%s %g\n", name, labels, v)
}

func (m *metricsWriter) counter(name, help string, v int64) {
	m.family(name, "counter", help)
	m.sample(name, "", float64(v))
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.family(name, "gauge", help)
	m.sample(name, "", v)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsWriter

	m.gauge("tuned_uptime_seconds", "Seconds since the daemon booted.", time.Since(s.start).Seconds())
	m.counter("tuned_requests_total", "POST /v1/tune requests answered (any tier).", s.requests.Load())
	m.counter("tuned_rejected_total", "Requests shed by admission control with 429.", s.rejected.Load())
	m.counter("tuned_batches_total", "Tuning batches run.", s.batches.Load())
	m.counter("tuned_measurements_total", "Fresh measurements performed.", s.measured.Load())
	m.counter("tuned_retries_total", "Transient measurement failures retried.", s.retries.Load())
	m.counter("tuned_quarantined_total", "Configurations quarantined after repeated failures.", s.quarantined.Load())
	m.counter("tuned_partial_responses_total", "Responses cut short by the request timeout.", s.partials.Load())

	// Verdicts are labeled by provenance tier AND the algorithm kind the
	// per-layer choice settled on, so a dashboard can see e.g. depthwise
	// layers flipping from direct to igemm. The full tier×kind grid emits
	// (zeros included) so every series exists from the first scrape.
	m.family("tuned_verdicts_total", "counter", "Layer verdicts served, by provenance tier and algorithm kind.")
	s.verdictMu.Lock()
	for _, tier := range []autotune.Tier{autotune.TierMeasured, autotune.TierAnalytic, autotune.TierRefined} {
		for _, kind := range autotune.Kinds {
			m.sample("tuned_verdicts_total",
				fmt.Sprintf("tier=%q,kind=%q", tier.String(), kind.String()),
				float64(s.verdictByTK[verdictKey(tier, kind)]))
		}
	}
	s.verdictMu.Unlock()

	if s.breaker != nil {
		m.gauge("tuned_breaker_state",
			"Measurement circuit breaker state: 0 closed, 1 open, 2 half-open.",
			float64(s.breaker.State()))
		m.family("tuned_breaker_transitions_total", "counter", "Breaker transitions, by state entered.")
		m.sample("tuned_breaker_transitions_total", `state="open"`, float64(s.breakerOpened.Load()))
		m.sample("tuned_breaker_transitions_total", `state="half-open"`, float64(s.breakerHalfOpen.Load()))
		m.sample("tuned_breaker_transitions_total", `state="closed"`, float64(s.breakerClosed.Load()))
	}
	if s.refineCh != nil {
		m.gauge("tuned_refine_queue_depth", "Analytically-answered networks awaiting background measurement.", float64(len(s.refineCh)))
		m.counter("tuned_refine_completed_total", "Refinement jobs that measured their network.", s.refineDone.Load())
		m.counter("tuned_refine_dropped_total", "Refinement jobs dropped on a full queue.", s.refineDropped.Load())
		m.counter("tuned_refine_failed_total", "Refinement jobs whose measured sweep failed.", s.refineFailed.Load())
	}

	cs := s.cache.Stats()
	m.gauge("tuned_cache_entries", "Tuning cache entries resident.", float64(cs.Entries))
	m.gauge("tuned_cache_bytes", "Approximate tuning cache bytes resident.", float64(cs.Bytes))
	m.counter("tuned_cache_hits_total", "Tuning cache hits.", cs.Hits)
	m.counter("tuned_cache_misses_total", "Tuning cache misses.", cs.Misses)
	m.counter("tuned_cache_evictions_total", "Tuning cache evictions.", cs.Evictions)

	s.clusterMetrics(&m)

	m.gauge("tuned_inflight_budget", "Measurement budget currently reserved by admitted requests.", float64(s.adm.load()))
	snapAge := -1.0
	if ns := s.lastSnapshot.Load(); ns > 0 {
		snapAge = time.Since(time.Unix(0, ns)).Seconds()
	}
	m.gauge("tuned_snapshot_age_seconds", "Age of the last successful state flush (-1: never).", snapAge)
	salvaged := 0.0
	if s.salvaged.Load() {
		salvaged = 1
	}
	m.gauge("tuned_state_salvaged", "1 when boot salvaged a damaged state file.", salvaged)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, m.b.String())
}
