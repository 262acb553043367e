package tuned

import (
	"slices"
	"strconv"
	"strings"

	"repro"
	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// tuneRequest is one tuning request as the daemon handles it, resolved
// against the server defaults: the architecture, the layers, the per-layer
// engine options and the canonical candidate-kind set. The legacy winograd
// flag is folded into kinds, so every spelling of one candidate set is one
// value — and therefore one merge group, one routing key and one
// refinement-dedup key.
type tuneRequest struct {
	arch   memsim.Arch
	layers []autotune.NetworkLayer
	opts   autotune.Options
	// kinds is the extra candidate set beside Direct (which is always
	// tuned): deduplicated, in autotune.Kinds order, never holding Direct.
	kinds []autotune.Kind
}

// newTuneRequest resolves a validated description: the arch by name, the
// budget and seed overrides, the candidate kinds (request kinds, else
// Config.Kinds) plus Winograd when the resolved winograd flag (request,
// else Config.Winograd) asks for it.
func (s *Server) newTuneRequest(desc repro.NetworkDescription) (tuneRequest, error) {
	arch, err := memsim.ByName(desc.Arch)
	if err != nil {
		return tuneRequest{}, err
	}
	opts := s.cfg.Tune
	winograd := s.cfg.Winograd
	kinds := s.cfg.Kinds
	if o := desc.Options; o != nil {
		if o.Budget > 0 {
			opts.Budget = o.Budget
		}
		if o.Seed != 0 {
			opts.Seed = o.Seed
		}
		if o.Winograd != nil {
			winograd = *o.Winograd
		}
		if len(o.Kinds) > 0 {
			kinds = make([]autotune.Kind, len(o.Kinds))
			for i, n := range o.Kinds {
				if kinds[i], err = autotune.ParseKind(n); err != nil {
					return tuneRequest{}, err
				}
			}
		}
	}
	var canon []autotune.Kind
	for _, k := range autotune.Kinds {
		if k != autotune.Direct && (slices.Contains(kinds, k) || (k == autotune.Winograd && winograd)) {
			canon = append(canon, k)
		}
	}
	return tuneRequest{arch: arch, layers: desc.NetworkLayers(), opts: opts, kinds: canon}, nil
}

// kindsKey is the canonical kind set's string form inside the keys.
func (r tuneRequest) kindsKey() string {
	var b strings.Builder
	for i, k := range r.kinds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.String())
	}
	return b.String()
}

// key identifies the request by everything that shapes its answer —
// architecture, budget, seed, candidate kinds, every layer shape. It is the
// dedup unit of the refinement queue (a hammered analytic endpoint enqueues
// each network once) and the routing key of the cluster layer (identical
// requests from any replica converge on one owner, so the cache dedup and
// warm-merge machinery keep working cluster-wide).
func (r tuneRequest) key() string {
	var b strings.Builder
	b.WriteString(r.arch.Name)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(r.opts.Budget))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(r.opts.Seed, 10))
	b.WriteByte('|')
	b.WriteString(r.kindsKey())
	for _, l := range r.layers {
		b.WriteByte('|')
		b.WriteString(l.Shape.String())
	}
	return b.String()
}

// group is the request's batcher merge key.
func (r tuneRequest) group() groupKey {
	return groupKey{arch: r.arch.Name, budget: r.opts.Budget, seed: r.opts.Seed, kinds: r.kindsKey()}
}

// searchKey is one (kind, shape) search of a request.
type searchKey struct {
	kind  autotune.Kind
	shape shapes.ConvShape
}

// keys lists the request's distinct searches: per layer, exactly the
// candidates the sweep would tune (autotune.CandidateKinds). Groups 0 and
// 1 are one dense shape, as in the cache key.
func (r tuneRequest) keys() []searchKey {
	seen := make(map[searchKey]bool, 2*len(r.layers))
	var out []searchKey
	for _, l := range r.layers {
		s := l.Shape
		s.Groups = s.G()
		for _, kind := range autotune.CandidateKinds(s, false, r.kinds) {
			k := searchKey{kind, s}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// describe is the request's wire form, the one both the forwarded envelope
// and the persisted refinement backlog carry. Every resolved option is
// explicit — winograd false, the kinds listed with Direct first so the list
// is never empty — so a receiver with the same Config rebuilds this exact
// value instead of substituting its own defaults.
func (r tuneRequest) describe() repro.NetworkDescription {
	d := repro.DescribeNetwork(r.arch.Name, r.layers)
	names := []string{autotune.Direct.String()}
	for _, k := range r.kinds {
		names = append(names, k.String())
	}
	winograd := false
	d.Options = &repro.RequestOptions{Budget: r.opts.Budget, Seed: r.opts.Seed, Winograd: &winograd, Kinds: names}
	return d
}
