package experiments

import (
	"fmt"
	"strings"

	"redcane/internal/noise"
)

// FaultRow is one (fault kind, severity) accuracy measurement.
type FaultRow struct {
	Kind     string
	Severity float64
	Drop     float64
}

// FaultTypesResult compares the error sources of the paper's Sec. II-C on
// the same trained network: approximation noise (Gaussian), transient
// faults (bit flips) and permanent faults (stuck-at-0/1), all injected at
// the MAC outputs. This extends the paper, which scopes to approximation
// noise only.
type FaultTypesResult struct {
	Benchmark Benchmark
	Clean     float64
	Rows      []FaultRow
}

// AblationFaultTypes runs the comparison on the trained DeepCaps.
func (r *Runner) AblationFaultTypes() (*FaultTypesResult, error) {
	a, clean, err := r.ablation(CaseStudyBenchmark, 0)
	if err != nil {
		return nil, err
	}
	out := &FaultTypesResult{Benchmark: CaseStudyBenchmark, Clean: clean}
	filter := noise.ForGroup(noise.MACOutputs)

	// measure records one row; after the first failure it does nothing,
	// and the error is returned below.
	measure := func(kind string, severity float64, inj noise.Splitter) {
		if err != nil {
			return
		}
		var acc float64
		if acc, err = a.Evaluate(r.ctx(), nil, inj, ""); err == nil {
			out.Rows = append(out.Rows, FaultRow{Kind: kind, Severity: severity, Drop: acc - clean})
		}
	}
	for _, nm := range []float64{0.005, 0.02, 0.05} {
		measure("gaussian-nm", nm, noise.NewGaussian(nm, 0, filter, r.Cfg.Seed+61))
	}
	for _, p := range []float64{0.0001, 0.001, 0.01} {
		measure("bitflip", p, noise.NewBitFlip(p, 8, filter, r.Cfg.Seed+62))
	}
	for _, frac := range []float64{0.0001, 0.001, 0.01} {
		measure("stuck-at-0", frac, noise.NewStuckAt(frac, false, filter, r.Cfg.Seed+63))
		measure("stuck-at-1", frac, noise.NewStuckAt(frac, true, filter, r.Cfg.Seed+64))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render formats the fault comparison.
func (f *FaultTypesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — error-source comparison at the MAC outputs (%s on %s, clean %.2f%%)\n",
		f.Benchmark.Arch, f.Benchmark.Dataset, 100*f.Clean)
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "source", "severity", "drop [%]")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s %10.4f %+12.2f\n", row.Kind, row.Severity, 100*row.Drop)
	}
	return b.String()
}
