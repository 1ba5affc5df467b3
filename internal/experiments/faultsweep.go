package experiments

import (
	"fmt"

	"redcane/internal/core"
	"redcane/internal/noise"
)

// This file is the fault-campaign experiment: the group-wise resilience
// analysis of the methodology driven by a fault injector (bit flips,
// stuck-at cells) instead of the paper's Gaussian noise model. The sweep
// grid's severity axis is reinterpreted per kind — flip probability or
// stuck fraction — and everything else (counter seeding, prefix caching,
// checkpoint resume, fleet distribution) is the shared engine.

// FaultSweepResult holds one benchmark's group-wise fault campaign.
type FaultSweepResult struct {
	Benchmark Benchmark
	Spec      noise.Spec
	Clean     float64
	Groups    []core.GroupResult
}

// FaultSweep runs the group-wise resilience analysis under the given
// fault model. A zero spec injects the default Gaussian model on the
// fault severity grid; ov.NMSweep replaces that grid (it is the severity
// grid: flip probability for bit-flip, stuck fraction for stuck-at).
func (r *Runner) FaultSweep(b Benchmark, spec noise.Spec, ov Overrides) (*FaultSweepResult, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	a, err := r.analyzer(b, core.Options{Seed: 26, NMSweep: core.DefaultFaultSweep, Noise: spec}, ov)
	if err != nil {
		return nil, err
	}
	ctx := r.ctx()
	clean, err := a.Evaluate(ctx, nil, nil, "")
	if err != nil {
		return nil, err
	}
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{
		Benchmark: b,
		Spec:      spec,
		Clean:     clean,
		Groups:    groups,
	}, nil
}

// Render formats the fault campaign's accuracy-drop curves, labeling the
// severity axis by the injector kind.
func (f *FaultSweepResult) Render() string {
	axis := f.Spec.SeverityLabel()
	return renderCurves(fmt.Sprintf("fault campaign [%s] — %s on %s (clean %.2f%%)\n",
		f.Spec, f.Benchmark.Arch, f.Benchmark.Dataset, 100*f.Clean),
		axis, fmt.Sprintf("accuracy drop [%%] vs %s (%s)", axis, f.Spec), f.Groups)
}
