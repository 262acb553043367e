// Package tuned is the tuning-as-a-service daemon behind cmd/tuned: a
// long-running HTTP server wrapping the network tuner, with the shared
// state-carrying cache as its source of truth. Clients POST a network
// description to /v1/tune and receive per-layer verdicts; identical
// in-flight requests collapse across remote callers through the cache's
// singleflight dedup, concurrent distinct networks merge into one transfer
// pool through the request batcher, and an admission controller sheds load
// beyond the configured measurement budget with 429 + Retry-After.
package tuned

import (
	"sync"

	"repro/internal/autotune"
)

// admission is the server's load-shedding gate. The unit of account is the
// measurement: one tuning request is admitted with the worst-case number of
// fresh measurements it can trigger (distinct not-yet-cached search keys ×
// per-layer budget), and releases that reservation when it completes. A
// request that would push the in-flight total over the cap is rejected —
// the HTTP layer turns that into 429 with a Retry-After — except when the
// server is idle: a request too big for the cap alone still runs, it just
// runs by itself.
type admission struct {
	max int64 // 0 = unlimited

	mu       sync.Mutex
	inflight int64
}

func newAdmission(max int64) *admission { return &admission{max: max} }

// acquire reserves cost in-flight measurements, reporting whether the
// request is admitted. A zero cost always is: it triggers no measurement,
// even while an oversize request running alone holds more than the cap.
func (a *admission) acquire(cost int64) bool {
	if cost < 0 {
		cost = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if cost > 0 && a.max > 0 && a.inflight > 0 && a.inflight+cost > a.max {
		return false
	}
	a.inflight += cost
	return true
}

// release returns a reservation.
func (a *admission) release(cost int64) {
	if cost < 0 {
		cost = 0
	}
	a.mu.Lock()
	a.inflight -= cost
	if a.inflight < 0 {
		a.inflight = 0
	}
	a.mu.Unlock()
}

// load reports the currently reserved measurement budget.
func (a *admission) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// admissionCost is the worst-case fresh-measurement count of a request:
// per distinct (kind, shape) key not already answered by the cache, one
// full per-layer budget. Cached keys cost nothing — a replayed network
// passes admission even under full load, which is exactly right: it
// triggers no measurements. The keys are exactly what the sweep would
// search (tuneRequest.keys), so extra kinds are accounted before they can
// run. The presence check books no cache hit or miss: the sweep's own
// lookup counts each key once.
func admissionCost(cache *autotune.Cache, req tuneRequest) int64 {
	var cost int64
	for _, k := range req.keys() {
		if _, ok := cache.Entry(req.arch.Name, k.kind, k.shape); !ok {
			cost += int64(req.opts.Budget)
		}
	}
	return cost
}
