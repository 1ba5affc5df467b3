package experiments

import (
	"fmt"
	"math"
	"strings"

	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// StabilityResult quantifies how robust the headline result is to the
// injected-noise seed: the group-wise tolerated NMs are re-measured under
// several independent seeds on the same trained network, and the fraction
// of seeds preserving the routing-groups-more-resilient ordering is
// reported. The paper reports single runs; this extension adds the error
// bars.
type StabilityResult struct {
	Benchmark Benchmark
	Seeds     int
	// MeanTol / StdTol per group, across seeds.
	MeanTol map[noise.Group]float64
	StdTol  map[noise.Group]float64
	// OrderingHolds counts seeds where min(softmax, logits) ≥
	// max(MAC outputs, activations).
	OrderingHolds int
}

// Stability re-runs the group-wise analysis under n independent seeds.
func (r *Runner) Stability(b Benchmark, n int) (*StabilityResult, error) {
	sums := map[noise.Group][]float64{}
	holds := 0
	for s := 0; s < n; s++ {
		a, err := r.analyzer(b, core.Options{Seed: 1000 * uint64(s+1), Trials: 1}, Overrides{})
		if err != nil {
			return nil, err
		}
		clean, err := a.Evaluate(r.ctx(), nil, nil, "")
		if err != nil {
			return nil, err
		}
		groups, err := a.AnalyzeGroups(r.ctx(), clean)
		if err != nil {
			return nil, err
		}
		tol := map[noise.Group]float64{}
		for _, g := range groups {
			tol[g.Group] = g.ToleratedNM
			sums[g.Group] = append(sums[g.Group], g.ToleratedNM)
		}
		routing := math.Min(tol[noise.Softmax], tol[noise.LogitsUpdate])
		conv := math.Max(tol[noise.MACOutputs], tol[noise.Activations])
		if routing >= conv {
			holds++
		}
	}
	out := &StabilityResult{
		Benchmark: b, Seeds: n,
		MeanTol: map[noise.Group]float64{}, StdTol: map[noise.Group]float64{},
		OrderingHolds: holds,
	}
	for g, vs := range sums {
		tv := tensor.NewFrom(append([]float64(nil), vs...), len(vs))
		out.MeanTol[g] = tv.Mean()
		out.StdTol[g] = tv.Std()
	}
	return out, nil
}

// Render formats the per-group statistics.
func (s *StabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stability — tolerated NM across %d noise seeds (%s on %s)\n",
		s.Seeds, s.Benchmark.Arch, s.Benchmark.Dataset)
	for _, g := range noise.Groups() {
		fmt.Fprintf(&b, "  %-14s %.3f ± %.3f\n", g, s.MeanTol[g], s.StdTol[g])
	}
	fmt.Fprintf(&b, "  routing ≥ conv ordering held in %d/%d seeds\n", s.OrderingHolds, s.Seeds)
	return b.String()
}

// RangeEstimatorResult is the R(X)-estimator ablation: the paper's Eq. 3
// normalizes noise by the min/max range, which a single outlier inflates;
// this compares the accuracy drop at fixed NM under the min/max estimator
// versus a robust 0.1–99.9 percentile spread.
type RangeEstimatorResult struct {
	Benchmark Benchmark
	NM        float64
	// Drops per estimator name.
	Drops map[string]float64
}

// AblationRangeEstimator measures both estimators on the MAC outputs.
func (r *Runner) AblationRangeEstimator(b Benchmark) (*RangeEstimatorResult, error) {
	a, clean, err := r.ablation(b, 0)
	if err != nil {
		return nil, err
	}
	const nm = 0.02
	out := &RangeEstimatorResult{Benchmark: b, NM: nm, Drops: map[string]float64{}}

	for _, name := range []string{"minmax", "p99.9"} {
		inj := noise.NewGaussian(nm, 0, noise.ForGroup(noise.MACOutputs), r.Cfg.Seed+81)
		if name == "p99.9" {
			inj.RangeFn = func(v *tensor.Tensor) float64 { return tensor.PercentileRange(v, 0.1, 99.9) }
		}
		acc, err := a.Evaluate(r.ctx(), nil, inj, "")
		if err != nil {
			return nil, err
		}
		out.Drops[name] = acc - clean
	}
	return out, nil
}

// Render formats the comparison.
func (a *RangeEstimatorResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — R(X) estimator at NM=%.3f (MAC outputs, %s on %s)\n",
		a.NM, a.Benchmark.Arch, a.Benchmark.Dataset)
	for _, name := range []string{"minmax", "p99.9"} {
		fmt.Fprintf(&b, "  %-8s accuracy drop %+0.2f%%\n", name, 100*a.Drops[name])
	}
	return b.String()
}
