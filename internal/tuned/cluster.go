package tuned

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
)

// This file wires the cluster peer layer (internal/cluster) into the
// daemon. With -peers configured, N replicas form one logically-shared
// tuning service: every replica computes the same consistent-hash ownership
// for every request key, a replica that does not own a key proxies the
// request to the primary owner (hedging to the secondary when the primary
// is slow, failing over when it is down), and an owner replicates the cache
// entries a request produced to the key's other owners — queueing them as
// hinted handoff while a peer is down and replaying on rejoin. The
// degradation ladder from the standalone daemon gets one more rung at the
// bottom: a request whose owners are all unreachable is answered from the
// local analytic tier (200, tier "analytic"), never with a 5xx.

const (
	// maxReplicateBody bounds POST /v1/cluster/replicate bodies. Replication
	// envelopes carry engine state (measurement rows), so they run far larger
	// than client requests.
	maxReplicateBody = 16 << 20
	// pushTimeout bounds one replication push or handoff-drain round trip.
	pushTimeout = 10 * time.Second
)

// clusterState is the per-server cluster runtime.
type clusterState struct {
	cfg        cluster.Config
	ring       *cluster.Ring
	membership *cluster.Membership
	handoff    *cluster.Handoff
	client     *cluster.Client

	pushWG sync.WaitGroup // in-flight async replication pushes

	forwarded      atomic.Int64 // client requests proxied to an owner
	forwardServed  atomic.Int64 // peer-forwarded requests served locally
	failovers      atomic.Int64 // forwards moved to the next owner after a failure
	hedges         atomic.Int64 // hedged duplicates launched
	localFallbacks atomic.Int64 // requests answered locally because every owner was unreachable
	pushedEntries  atomic.Int64 // cache entries pushed to peers (replication + replay)
	pushFailures   atomic.Int64 // replication pushes that failed over to handoff
	mergedEntries  atomic.Int64 // cache entries merged from peer pushes
}

// initCluster builds the cluster runtime and registers its peer endpoints;
// no-op when the daemon is standalone.
func (s *Server) initCluster(mux *http.ServeMux) {
	if !s.cfg.Cluster.Enabled() {
		return
	}
	ccfg := s.cfg.Cluster.Normalized()
	c := &clusterState{
		cfg:     ccfg,
		ring:    cluster.NewRing(ccfg.Peers),
		handoff: cluster.NewHandoff(ccfg.HandoffMax),
		client:  cluster.NewClient(cluster.ClientConfig{}),
	}
	c.membership = cluster.NewMembership(ccfg, c.client.Probe, func(addr string) {
		go s.drainHandoff(addr)
	})
	s.cluster = c
	mux.HandleFunc("POST /v1/cluster/tune", s.handleClusterTune)
	mux.HandleFunc("POST /v1/cluster/replicate", s.handleClusterReplicate)
}

// startCluster launches the probe loops; split from initCluster so boot-time
// state restore happens before the first rejoin can fire a drain.
func (s *Server) startCluster() {
	if s.cluster != nil {
		s.cluster.membership.Start()
	}
}

// stopCluster halts the probe loops and waits out in-flight pushes.
func (s *Server) stopCluster() {
	if s.cluster != nil {
		s.cluster.membership.Stop()
		s.cluster.pushWG.Wait()
	}
}

// routeTune is the routing seam handleTune runs after parsing and before
// serving: it reports true when it wrote the response (the request was
// proxied to an owner, or answered from the local fallback tier because no
// owner was reachable) and false when this replica owns the key and should
// serve it locally.
func (s *Server) routeTune(w http.ResponseWriter, r *http.Request, req tuneRequest) bool {
	c := s.cluster
	owners := c.ring.Owners(req.key(), c.cfg.Replicas)
	ladder := make([]string, 0, len(owners))
	for _, o := range owners {
		if o == c.cfg.Self {
			return false // we own the key: serve locally
		}
		if c.membership.Up(o) {
			ladder = append(ladder, o)
		}
	}
	envelope, err := json.Marshal(repro.ForwardedTuneRequest{Origin: c.cfg.Self, Attempt: 1, Network: req.describe()})
	if err == nil && len(ladder) > 0 && s.forwardHedged(r.Context(), w, envelope, ladder) {
		c.forwarded.Add(1)
		return true
	}
	// Every owner is down or failed mid-request: the bottom of the
	// degradation ladder is the local analytic tier, never a 5xx. The
	// refinement enqueue inside gives this replica a measured answer to
	// serve (and replicate) if the partition outlives the client's retry.
	c.localFallbacks.Add(1)
	s.serveAnalytic(w, req)
	return true
}

// forwardHedged proxies one request along the owner ladder: the primary is
// asked first, the next owner is added after HedgeAfter without an answer
// (tail-latency hedge) or immediately on a failure (failover), and the
// first non-5xx response wins and is relayed verbatim. A transport error
// marks the peer down so the very next request routes around it. Reports
// false when every ladder rung failed.
func (s *Server) forwardHedged(ctx context.Context, w http.ResponseWriter, envelope []byte, ladder []string) bool {
	c := s.cluster
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the losing duplicate dies with the handler
	type reply struct {
		status int
		body   []byte
		addr   string
		err    error
	}
	replies := make(chan reply, len(ladder))
	launched := 0
	launch := func() {
		addr := ladder[launched]
		launched++
		go func() {
			status, body, err := c.client.Forward(ctx, addr, envelope)
			replies <- reply{status, body, addr, err}
		}()
	}
	launch()
	hedge := time.NewTimer(c.cfg.HedgeAfter)
	defer hedge.Stop()
	for pending := 1; pending > 0; {
		select {
		case rep := <-replies:
			pending--
			if rep.err != nil {
				c.membership.MarkDown(rep.addr)
			}
			if rep.err != nil || rep.status >= 500 {
				if launched < len(ladder) {
					c.failovers.Add(1)
					launch()
					pending++
				}
				continue
			}
			// Any non-5xx answer — success or the owner's own verdict on a
			// bad request — is the response.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			w.Write(rep.body)
			return true
		case <-hedge.C:
			if launched < len(ladder) {
				c.hedges.Add(1)
				launch()
				pending++
			}
		case <-ctx.Done():
			return false
		}
	}
	return false
}

// handleClusterTune is POST /v1/cluster/tune: a peer-forwarded client
// request. The receiver always serves locally — it never re-forwards, which
// is what makes routing loop-free — so a forwarded request behaves exactly
// like a client request that happened to hit its owner.
func (s *Server) handleClusterTune(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		errJSON(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	fr, err := repro.ParseForwardedTuneRequest(body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := s.newTuneRequest(fr.Network)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cluster.forwardServed.Add(1)
	s.serveTune(w, req)
}

// handleClusterReplicate is POST /v1/cluster/replicate: a peer pushing the
// cache entries a request it owned produced (or a rejoin replay of hinted
// handoff). The body is the same versioned, checksummed envelope the state
// file uses; validation is all-or-nothing, exactly like loading a file.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicateBody))
	if err != nil {
		errJSON(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	entries, err := autotune.DecodeEntries(body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.cache.PutEntries(entries); err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cluster.mergedEntries.Add(int64(len(entries)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"merged": len(entries)})
}

// replicateRequest ships the cache entries a just-served request produced
// to the key's other owners, asynchronously — replication is off the client
// response path. A push failing (after the client's own retries) marks the
// peer down and parks the entries as hinted handoff for the rejoin replay.
func (s *Server) replicateRequest(req tuneRequest) {
	c := s.cluster
	targets := make([]string, 0, c.cfg.Replicas)
	selfOwns := false
	for _, o := range c.ring.Owners(req.key(), c.cfg.Replicas) {
		if o == c.cfg.Self {
			selfOwns = true
		} else {
			targets = append(targets, o)
		}
	}
	if !selfOwns || len(targets) == 0 {
		// A non-owner served this (local fallback during a partition): the
		// owners will produce their own entries when they next see the key.
		return
	}
	entries := s.collectEntries(req)
	if len(entries) == 0 {
		return
	}
	envelope, err := autotune.EncodeEntries(entries)
	if err != nil {
		return
	}
	for _, peer := range targets {
		peer := peer
		if !c.membership.Up(peer) {
			c.handoff.Queue(peer, entries)
			continue
		}
		c.pushWG.Add(1)
		go func() {
			defer c.pushWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
			defer cancel()
			if err := c.client.Push(ctx, peer, envelope); err != nil {
				c.pushFailures.Add(1)
				c.membership.MarkDown(peer)
				c.handoff.Queue(peer, entries)
				return
			}
			c.pushedEntries.Add(int64(len(entries)))
		}()
	}
}

// collectEntries gathers the persisted cache entries a request's sweep
// produced or touched: every candidate kind of every layer shape, engine
// state included — the sweep measures all candidates (that is what the
// per-layer kernel choice compares), so after a measured answer every one
// of these exists and the receiving replica can serve the same request with
// zero fresh measurements.
func (s *Server) collectEntries(req tuneRequest) []autotune.CacheEntry {
	var out []autotune.CacheEntry
	for _, k := range req.keys() {
		if e, ok := s.cache.Entry(req.arch.Name, k.kind, k.shape); ok {
			if _, err := e.Key(); err == nil {
				out = append(out, e)
			}
		}
	}
	return out
}

// drainHandoff replays a rejoined peer's parked entries, batch by batch,
// until its queue is empty. A failing replay requeues the batch (fresher
// writes queued meanwhile win) and re-marks the peer down; the next rejoin
// resumes the drain.
func (s *Server) drainHandoff(addr string) {
	c := s.cluster
	for {
		entries := c.handoff.Take(addr)
		if len(entries) == 0 {
			return
		}
		envelope, err := autotune.EncodeEntries(entries)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		err = c.client.Push(ctx, addr, envelope)
		cancel()
		if err != nil {
			c.handoff.Requeue(addr, entries)
			c.membership.MarkDown(addr)
			return
		}
		c.handoff.MarkReplayed(len(entries))
		c.pushedEntries.Add(int64(len(entries)))
	}
}

// ClusterHealth is the cluster block of /healthz: this replica's identity,
// the replication factor, the peer table the failure detector maintains,
// and the hinted-handoff backlog.
type ClusterHealth struct {
	Self              string               `json:"self"`
	ReplicationFactor int                  `json:"replication_factor"`
	Peers             []cluster.PeerHealth `json:"peers"`
	HandoffDepth      int                  `json:"handoff_depth"`
}

// clusterHealth returns the /healthz cluster block, nil when standalone.
func (s *Server) clusterHealth() *ClusterHealth {
	c := s.cluster
	if c == nil {
		return nil
	}
	return &ClusterHealth{
		Self:              c.cfg.Self,
		ReplicationFactor: c.cfg.Replicas,
		Peers:             c.membership.Snapshot(),
		HandoffDepth:      c.handoff.DepthAll(),
	}
}

// clusterMetrics appends the peer/forward/handoff series to /metrics.
func (s *Server) clusterMetrics(m *metricsWriter) {
	c := s.cluster
	if c == nil {
		return
	}
	m.family("tuned_peer_up", "gauge", "Peer reachability per the failure detector (1 up, 0 down).")
	for _, p := range c.membership.Snapshot() {
		up := 0.0
		if p.Up {
			up = 1
		}
		m.sample("tuned_peer_up", `peer="`+p.Addr+`"`, up)
	}
	m.counter("tuned_forwarded_total", "Client requests proxied to an owning peer.", c.forwarded.Load())
	m.counter("tuned_forward_served_total", "Peer-forwarded requests served locally.", c.forwardServed.Load())
	m.counter("tuned_forward_failovers_total", "Forwards moved to the next owner after a failure.", c.failovers.Load())
	m.counter("tuned_forward_hedges_total", "Hedged duplicate forwards launched.", c.hedges.Load())
	m.counter("tuned_forward_local_fallback_total", "Requests answered from the local analytic tier because every owner was unreachable.", c.localFallbacks.Load())
	m.counter("tuned_replicate_pushed_entries_total", "Cache entries pushed to peers (replication and handoff replay).", c.pushedEntries.Load())
	m.counter("tuned_replicate_push_failures_total", "Replication pushes diverted to hinted handoff.", c.pushFailures.Load())
	m.counter("tuned_replicate_merged_entries_total", "Cache entries merged from peer pushes.", c.mergedEntries.Load())
	queued, replayed, dropped := c.handoff.Stats()
	m.gauge("tuned_handoff_depth", "Cache entries parked for unreachable peers.", float64(c.handoff.DepthAll()))
	m.counter("tuned_handoff_queued_total", "Cache entries ever parked as hinted handoff.", queued)
	m.counter("tuned_handoff_replayed_total", "Hinted-handoff entries replayed to rejoined peers.", replayed)
	m.counter("tuned_handoff_dropped_total", "Hinted-handoff entries dropped (bound or validation).", dropped)
}
