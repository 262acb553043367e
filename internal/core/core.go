// Package core composes the paper's primary contribution into one call: the
// I/O-lower-bound-guided analysis of a convolution layer. Given a layer and
// a simulated architecture it produces, for each applicable algorithm,
// the Theorem 4.12/4.20 lower bound, the Section-5 dataflow design derived
// from it, the auto-tuned refinement of that design, the measured traffic
// and modeled runtime — everything the paper's pipeline
// (theory → dataflow → tuning) yields, in one structure.
package core

import (
	"context"
	"fmt"

	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// AlgorithmReport is the bound-to-tuned pipeline outcome for one algorithm.
type AlgorithmReport struct {
	Algorithm string // "direct" or "winograd"
	// LowerBound is the minimum off-chip traffic (elements) any schedule
	// must move with the design's shared-memory size as S.
	LowerBound float64
	// DesignConfig is the untuned Section-5 dataflow design.
	DesignConfig conv.Config
	// Design is the measured outcome of the design config.
	Design *conv.Result
	// TunedConfig is the engine's refinement of the design.
	TunedConfig conv.Config
	// Tuned is the measured outcome of the tuned config.
	Tuned *conv.Result
	// BoundGap is Tuned traffic / LowerBound — how near-optimal the tuned
	// dataflow's data movement is.
	BoundGap float64
}

// Analysis is the full layer report.
type Analysis struct {
	Shape   shapes.ConvShape
	Arch    memsim.Arch
	Library *conv.Result // best library baseline (direct paths)
	Reports []AlgorithmReport
	// Best indexes the fastest tuned report.
	Best int
}

// Speedup is the headline number: library time over best tuned time.
func (a *Analysis) Speedup() float64 {
	if a.Library == nil || len(a.Reports) == 0 {
		return 0
	}
	return a.Library.Seconds / a.Reports[a.Best].Tuned.Seconds
}

// Options bounds the tuning effort.
type Options struct {
	Budget int   // measurements per algorithm (default 96)
	Seed   int64 // determinism (default 1)
}

// Analyze runs the complete pipeline on one layer.
func Analyze(arch memsim.Arch, s shapes.ConvShape, opts Options) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.Budget <= 0 {
		opts.Budget = 96
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	a := &Analysis{Shape: s, Arch: arch}
	naive, err := conv.NaiveDirectDry(arch, s)
	if err != nil {
		return nil, err
	}
	col, err := conv.Im2colGEMMDry(arch, s)
	if err != nil {
		return nil, err
	}
	a.Library = col
	if naive.Seconds < col.Seconds {
		a.Library = naive
	}

	direct, err := analyzeDirect(arch, s, opts)
	if err != nil {
		return nil, err
	}
	a.Reports = append(a.Reports, *direct)
	if s.WinogradOK() && s.Hker == 3 && s.Hout() >= 2 && s.Wout() >= 2 {
		wino, err := analyzeWinograd(arch, s, opts)
		if err != nil {
			return nil, err
		}
		a.Reports = append(a.Reports, *wino)
	}
	for i, r := range a.Reports {
		if r.Tuned.Seconds < a.Reports[a.Best].Tuned.Seconds {
			a.Best = i
		}
	}
	return a, nil
}

func analyzeDirect(arch memsim.Arch, s shapes.ConvShape, opts Options) (*AlgorithmReport, error) {
	design := conv.DefaultDirectConfig(arch, s)
	designRes, err := conv.DirectTiledDry(arch, s, design)
	if err != nil {
		return nil, fmt.Errorf("core: design measurement: %w", err)
	}
	sp, err := autotune.NewSpace(s, arch, autotune.Direct, 0, true)
	if err != nil {
		return nil, err
	}
	topts := autotune.DefaultOptions()
	topts.Budget = opts.Budget
	topts.Seed = opts.Seed
	measure := autotune.LiftMeasurer(autotune.KindMeasurer(arch, s, autotune.Direct))
	tr, err := autotune.Tune(context.Background(), sp, measure, nil, topts)
	if err != nil {
		return nil, err
	}
	// The engine refines the *snapped* design (the seed must lie on the
	// space's axes); the raw design itself stays a candidate, so tuning
	// never reports a regression over the Section-5 starting point.
	best := tr.Best
	if designRes.Seconds < tr.BestM.Seconds {
		best = design
	}
	tunedRes, err := conv.DirectTiledDry(arch, s, best)
	if err != nil {
		return nil, err
	}
	lb := bounds.DirectLowerBound(s, best.SharedPerBlock)
	return &AlgorithmReport{
		Algorithm:    "direct",
		LowerBound:   lb,
		DesignConfig: design,
		Design:       designRes,
		TunedConfig:  best,
		Tuned:        tunedRes,
		BoundGap:     gap(float64(tunedRes.Counts.GlobalIO()), lb),
	}, nil
}

func analyzeWinograd(arch memsim.Arch, s shapes.ConvShape, opts Options) (*AlgorithmReport, error) {
	design := conv.DefaultWinogradConfig(arch, s, 2)
	designRes, err := conv.WinogradFusedDry(arch, s, design)
	if err != nil {
		return nil, fmt.Errorf("core: winograd design measurement: %w", err)
	}
	sp, err := autotune.NewSpace(s, arch, autotune.Winograd, 2, true)
	if err != nil {
		return nil, err
	}
	topts := autotune.DefaultOptions()
	topts.Budget = opts.Budget
	topts.Seed = opts.Seed
	measure := autotune.LiftMeasurer(autotune.KindMeasurer(arch, s, autotune.Winograd))
	tr, err := autotune.Tune(context.Background(), sp, measure, nil, topts)
	if err != nil {
		return nil, err
	}
	// As in analyzeDirect: the raw (unsnapped) design stays a candidate.
	best := tr.Best
	if designRes.Seconds < tr.BestM.Seconds {
		best = design
	}
	tunedRes, err := conv.WinogradFusedDry(arch, s, best)
	if err != nil {
		return nil, err
	}
	lb := bounds.WinogradLowerBound(s, best.WinogradE, best.SharedPerBlock)
	return &AlgorithmReport{
		Algorithm:    "winograd",
		LowerBound:   lb,
		DesignConfig: design,
		Design:       designRes,
		TunedConfig:  best,
		Tuned:        tunedRes,
		BoundGap:     gap(float64(tunedRes.Counts.GlobalIO()), lb),
	}, nil
}

func gap(measured, bound float64) float64 {
	if bound <= 0 {
		return 0 // the asymptotic bound is vacuous at this scale
	}
	return measured / bound
}
