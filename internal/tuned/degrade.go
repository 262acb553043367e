package tuned

import (
	"encoding/json"
	"net/http"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/memsim"
)

// This file is the daemon's graceful-degradation machinery. The service's
// design goal after PR 7 was "never lose work"; this layer's is "never
// refuse an answer". Three triggers route a request to the instant
// analytic tier instead of a hard failure: an open measurement circuit
// breaker (the backend is down — a measured search could only fast-fail),
// admission overflow with AnalyticOverflow set (the budget is spoken for —
// 429 becomes an estimate), and a layer whose search died inside an
// otherwise-admitted sweep (the engine's AnalyticFallback fills it). Every
// analytically-answered network is enqueued for background refinement: a
// worker waits until the breaker is not open and the admission budget has
// room, runs the measured sweep against the shared cache, and marks the
// refined keys so later cache-served verdicts report Tier "refined".

const (
	// refineQueueCap bounds the refinement backlog; beyond it, new
	// analytic answers are served but not queued (counted as dropped — the
	// client's re-POST re-enqueues).
	refineQueueCap = 256
	// refinePollInterval is how often a waiting refinement worker re-checks
	// the breaker and the admission budget.
	refinePollInterval = 5 * time.Millisecond
)

// refineJob is one analytically-answered request awaiting measurement.
type refineJob struct {
	key  string // req.key(), the dedup unit
	req  tuneRequest
	opts autotune.NetworkOptions
}

// analyticFor returns the per-architecture analytic tier, building it on
// first use and re-fitting its calibration whenever the cache has changed
// since the last fit — measured rows sharpen every later estimate.
func (s *Server) analyticFor(arch memsim.Arch) *autotune.AnalyticDSE {
	s.anMu.Lock()
	defer s.anMu.Unlock()
	a := s.analytic[arch.Name]
	if a == nil {
		a = autotune.NewAnalyticDSE(arch)
		s.analytic[arch.Name] = a
	}
	stamp := s.cache.Len()
	if last, ok := s.calStamp[arch.Name]; !ok || last != stamp {
		a.SetCalibration(autotune.CalibrateAnalytic(s.cache, arch))
		s.calStamp[arch.Name] = stamp
	}
	return a
}

// serveAnalytic answers a request entirely from the instant-verdict tier
// — 200, every verdict Tier "analytic" — and enqueues it for background
// refinement. The analytic tier consults no cache and takes no budget, so
// this path stays fast no matter how overloaded the measured path is.
func (s *Server) serveAnalytic(w http.ResponseWriter, req tuneRequest) {
	verdicts, err := s.analyticFor(req.arch).NetworkKinds(req.layers, req.kinds)
	if err != nil {
		errJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.requests.Add(1)
	s.countTiers(verdicts)
	s.enqueueRefine(req)
	resp := repro.TuneResponse{Arch: req.arch.Name,
		Verdicts:       repro.DescribeVerdicts(verdicts),
		NetworkSeconds: autotune.NetworkSeconds(verdicts),
		Tier:           autotune.TierAnalytic.String()}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// markTiers upgrades cache-served verdicts whose key the refinement queue
// has measured to Tier "refined", then counts every verdict's provenance
// for /metrics. With no degradation configured the refined set is empty
// and this is pure counting.
func (s *Server) markTiers(archName string, verdicts []autotune.LayerVerdict) {
	s.refinedMu.Lock()
	if len(s.refinedKeys) > 0 {
		for i := range verdicts {
			v := &verdicts[i]
			if v.Tier == autotune.TierMeasured && v.Shared &&
				s.refinedKeys[refinedKey(archName, v.Kind, v.Layer.Shape.String())] {
				v.Tier = autotune.TierRefined
			}
		}
	}
	s.refinedMu.Unlock()
	s.countTiers(verdicts)
}

// countTiers books served verdicts by (tier, kind): the one counter
// behind the labeled tuned_verdicts_total family on /metrics and the
// per-tier totals on /healthz (verdictsOf).
func (s *Server) countTiers(verdicts []autotune.LayerVerdict) {
	s.verdictMu.Lock()
	for _, v := range verdicts {
		s.verdictByTK[verdictKey(v.Tier, v.Kind)]++
	}
	s.verdictMu.Unlock()
}

// verdictsOf is the number of verdicts served from one tier, over every
// kind /metrics reports.
func (s *Server) verdictsOf(tier autotune.Tier) int64 {
	s.verdictMu.Lock()
	defer s.verdictMu.Unlock()
	var n int64
	for _, kind := range autotune.Kinds {
		n += s.verdictByTK[verdictKey(tier, kind)]
	}
	return n
}

func verdictKey(tier autotune.Tier, kind autotune.Kind) string {
	return tier.String() + "|" + kind.String()
}

func refinedKey(archName string, kind autotune.Kind, shape string) string {
	return archName + "|" + kind.String() + "|" + shape
}

// enqueueRefine queues an analytically-answered network for background
// measurement. A full queue or an already-pending identical request drops
// the job — the next analytic answer for it re-enqueues.
func (s *Server) enqueueRefine(req tuneRequest) {
	if s.refineCh == nil {
		return
	}
	key := req.key()
	s.refineMu.Lock()
	if s.refinePending[key] {
		s.refineMu.Unlock()
		return
	}
	s.refinePending[key] = true
	s.refineMu.Unlock()
	job := &refineJob{key: key, req: req, opts: s.networkOptions(req)}
	select {
	case s.refineCh <- job:
		s.refineMu.Lock()
		s.refineJobs[key] = req
		s.refineMu.Unlock()
	default:
		s.refineDropped.Add(1)
		s.refineMu.Lock()
		delete(s.refinePending, key)
		s.refineMu.Unlock()
	}
}

// refineLoop is one background refinement worker.
func (s *Server) refineLoop() {
	defer s.refineWG.Done()
	for {
		select {
		case <-s.refineStop:
			return
		case j := <-s.refineCh:
			s.refineOne(j)
		}
	}
}

// refineOne measures one queued network: wait until the breaker is not
// open and the admission budget has room (refinement always yields to
// foreground traffic), then run the measured sweep against the shared
// cache and mark the measured keys refined.
func (s *Server) refineOne(j *refineJob) {
	// A job aborted by shutdown (not attempted) stays in refineJobs so the
	// final snapshot persists it and the next boot re-enqueues it; only an
	// attempted job — measured or failed — leaves the persisted backlog.
	aborted := false
	defer func() {
		s.refineMu.Lock()
		delete(s.refinePending, j.key)
		if !aborted {
			delete(s.refineJobs, j.key)
		}
		s.refineMu.Unlock()
	}()
	var cost int64
	for {
		if s.breaker.State() != autotune.BreakerOpen {
			cost = admissionCost(s.cache, j.req)
			if s.adm.acquire(cost) {
				break
			}
		}
		select {
		case <-s.refineStop:
			aborted = true
			return
		case <-time.After(refinePollInterval):
		}
	}
	defer s.adm.release(cost)
	verdicts, err := autotune.TuneNetwork(j.req.arch, j.req.layers, s.cache, j.opts)
	if err != nil {
		s.refineFailed.Add(1)
		return
	}
	measured := 0
	s.refinedMu.Lock()
	for _, v := range verdicts {
		// A verdict that itself fell back to the analytic tier (the
		// breaker re-tripped mid-refinement) upgraded nothing; only
		// genuinely measured keys are marked.
		if v.Tier == autotune.TierMeasured {
			s.refinedKeys[refinedKey(j.req.arch.Name, v.Kind, v.Layer.Shape.String())] = true
			measured++
		}
	}
	s.refinedMu.Unlock()
	if measured > 0 {
		s.refineDone.Add(1)
		if s.cluster != nil {
			// The refinement just upgraded cache entries this replica owns;
			// ship the measured upgrade to the key's other owners too.
			s.replicateRequest(j.req)
		}
	} else {
		s.refineFailed.Add(1)
	}
}
