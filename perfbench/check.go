package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro"
	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// The correctness gate. It runs after the timed phase, so timing is
// undisturbed, and checks every answer the workload received against
// recomputations made from outside the program: the configuration must be
// a point of its kind's search space, its reported time must equal the dry
// evaluator's, and its off-chip traffic must not fall below the paper's I/O
// lower bound. Repeated networks must get the answer they got first.

// verdictKey identifies one distinct verdict for the memoized checks.
type verdictKey struct {
	kind  autotune.Kind
	shape shapes.ConvShape
	cfg   conv.Config
}

// verdictCheck is the memoized outcome of checking one distinct verdict.
type verdictCheck struct {
	seconds float64 // dry-evaluated time of the configuration
	io      float64 // its off-chip traffic, in floats
	bound   float64 // Q_lb at its fast-memory size; 0 when the bound is vacuous
	problem string  // empty when the configuration passed
}

// checker checks verdicts for one architecture and collects the bound
// statistics over the distinct verdicts it has seen.
type checker struct {
	arch   memsim.Arch
	spaces map[verdictKey]*autotune.Space // keyed with a zero cfg
	memo   map[verdictKey]verdictCheck
}

func newChecker(arch memsim.Arch) *checker {
	return &checker{arch: arch, spaces: make(map[verdictKey]*autotune.Space),
		memo: make(map[verdictKey]verdictCheck)}
}

// lowerBound is Q_lb for a configuration: the kind's internal/bounds
// function that the engine's pruning oracle uses, evaluated at the
// configuration's fast-memory size.
func lowerBound(kind autotune.Kind, s shapes.ConvShape, c conv.Config) float64 {
	switch kind {
	case autotune.Winograd:
		return bounds.WinogradLowerBound(s, c.WinogradE, c.SharedPerBlock)
	case autotune.FFT:
		return bounds.FFTPhase3LowerBound(s, c.SharedPerBlock)
	default:
		return bounds.DirectLowerBound(s, c.SharedPerBlock)
	}
}

// defaultE is the Winograd tile edge the network tuner builds its spaces
// with; the space explores every edge, so any default admits the same set.
func defaultE(kind autotune.Kind) int {
	if kind == autotune.Winograd {
		return 2
	}
	return 0
}

// config checks one distinct (kind, shape, config), memoized.
func (c *checker) config(k verdictKey) verdictCheck {
	if vc, ok := c.memo[k]; ok {
		return vc
	}
	vc := c.evaluate(k)
	c.memo[k] = vc
	return vc
}

func (c *checker) evaluate(k verdictKey) verdictCheck {
	sk := verdictKey{kind: k.kind, shape: k.shape}
	sp, ok := c.spaces[sk]
	if !ok {
		var err error
		sp, err = autotune.NewSpace(k.shape, c.arch, k.kind, defaultE(k.kind), true)
		if err != nil {
			return verdictCheck{problem: fmt.Sprintf("%v space: %v", k.kind, err)}
		}
		c.spaces[sk] = sp
	}
	if snapped, ok := sp.Snap(k.cfg); !ok || snapped != k.cfg {
		return verdictCheck{problem: fmt.Sprintf("%v config %+v is not a point of its space (snaps to %+v, ok=%v)",
			k.kind, k.cfg, snapped, ok)}
	}
	r, err := repro.MeasureKind(c.arch, k.shape, k.kind, k.cfg)
	if err != nil {
		return verdictCheck{problem: fmt.Sprintf("%v config %+v does not evaluate: %v", k.kind, k.cfg, err)}
	}
	vc := verdictCheck{seconds: r.Seconds, io: float64(r.Counts.GlobalIO()), bound: lowerBound(k.kind, k.shape, k.cfg)}
	if vc.io < vc.bound {
		vc.problem = fmt.Sprintf("%v config %+v moves %g floats, below the lower bound %g", k.kind, k.cfg, vc.io, vc.bound)
	}
	return vc
}

// response checks one decoded answer for the given layers and returns the
// first problem found, or "".
func (c *checker) response(layers []autotune.NetworkLayer, resp repro.TuneResponse) string {
	if resp.Arch != c.arch.Name {
		return fmt.Sprintf("arch %q, want %q", resp.Arch, c.arch.Name)
	}
	if len(resp.Verdicts) != len(layers) {
		return fmt.Sprintf("%d verdicts for %d layers", len(resp.Verdicts), len(layers))
	}
	var total float64
	for i, v := range resp.Verdicts {
		l := layers[i]
		if v.Layer != l.Name || v.Repeat != max(l.Repeat, 1) {
			return fmt.Sprintf("verdict %d is for layer %q×%d, want %q×%d", i, v.Layer, v.Repeat, l.Name, max(l.Repeat, 1))
		}
		kind, err := autotune.ParseKind(v.Kind)
		if err != nil {
			return fmt.Sprintf("layer %q: %v", l.Name, err)
		}
		vc := c.config(verdictKey{kind: kind, shape: l.Shape, cfg: v.Config.Config()})
		if vc.problem != "" {
			return fmt.Sprintf("layer %q: %s", l.Name, vc.problem)
		}
		if v.Tier == autotune.TierMeasured.String() && v.Seconds != vc.seconds {
			return fmt.Sprintf("layer %q: reported %v s, the dry evaluator gives %v s", l.Name, v.Seconds, vc.seconds)
		}
		total += v.Seconds * float64(v.Repeat)
	}
	if total != resp.NetworkSeconds {
		return fmt.Sprintf("network_seconds %v, verdicts sum to %v", resp.NetworkSeconds, total)
	}
	return ""
}

// sameVerdicts compares the parts of two answers for one network that a
// cache hit must reproduce: kind, config, seconds and tier per layer.
func sameVerdicts(got, want repro.TuneResponse) string {
	if len(got.Verdicts) != len(want.Verdicts) {
		return fmt.Sprintf("%d verdicts, first answer had %d", len(got.Verdicts), len(want.Verdicts))
	}
	for i, g := range got.Verdicts {
		w := want.Verdicts[i]
		if g.Kind != w.Kind || g.Config != w.Config || g.Seconds != w.Seconds || g.Tier != w.Tier {
			return fmt.Sprintf("layer %q: got %s %+v %v s (%s), first answer %s %+v %v s (%s)",
				g.Layer, g.Kind, g.Config, g.Seconds, g.Tier, w.Kind, w.Config, w.Seconds, w.Tier)
		}
	}
	return ""
}

// decodeResponse decodes a /v1/tune answer body.
func decodeResponse(body string) (repro.TuneResponse, error) {
	var resp repro.TuneResponse
	err := json.Unmarshal([]byte(body), &resp)
	return resp, err
}

// boundStats summarizes the distinct verdicts checked so far: the geometric
// mean of traffic over lower bound, and how many fell below the bound.
// Verdicts whose bound is vacuous (0: the whole layer fits in fast memory)
// have no ratio and are left out of the mean.
func (c *checker) boundStats() (geomean float64, violations int) {
	var logs float64
	n := 0
	for _, vc := range c.memo {
		if vc.io < vc.bound {
			violations++
		}
		if vc.bound <= 0 || vc.io <= 0 {
			continue
		}
		logs += math.Log(vc.io / vc.bound)
		n++
	}
	if n == 0 {
		return 0, violations
	}
	return math.Exp(logs / float64(n)), violations
}
