package experiments

import (
	"fmt"
	"io"
	"strings"

	"redcane/internal/approx"
	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/plot"
)

// Table2Result reproduces Table II: clean classification accuracy of the
// five (architecture, dataset) benchmarks with accurate multipliers.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one benchmark's accuracy.
type Table2Row struct {
	Benchmark Benchmark
	Accuracy  float64 // ours, in percent
}

// Table2 trains (or loads) all five benchmarks and evaluates them.
func (r *Runner) Table2() (*Table2Result, error) {
	var out Table2Result
	for _, b := range Benchmarks {
		t, err := r.Trained(b)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table2Row{Benchmark: b, Accuracy: 100 * t.TestAcc})
	}
	return &out, nil
}

// Render formats Table II with the paper's reference column.
func (t *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table II — clean accuracy with accurate multipliers\n")
	fmt.Fprintf(&b, "%-10s %-14s %10s %12s\n", "arch", "dataset", "ours [%]", "paper [%]")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-14s %10.2f %12.2f\n",
			row.Benchmark.Arch, row.Benchmark.Dataset, row.Accuracy, row.Benchmark.PaperAccuracy)
	}
	return b.String()
}

// Table3Result reproduces Table III: the partition of CapsNet inference
// operations into groups, as extracted from the DeepCaps network.
type Table3Result struct {
	Groups []Table3Group
}

// Table3Group is one group row with its member sites.
type Table3Group struct {
	Group noise.Group
	Sites []noise.Site
}

// Table3 extracts the operation groups from the trained DeepCaps.
func (r *Runner) Table3() (*Table3Result, error) {
	t, err := r.Trained(CaseStudyBenchmark)
	if err != nil {
		return nil, err
	}
	a := &core.Analyzer{Net: t.Net, Data: t.Data, Obs: r.obs(), Opts: core.Options{MaxEval: 1}}
	byGroup := a.ExtractGroups()
	var out Table3Result
	for _, g := range noise.Groups() {
		out.Groups = append(out.Groups, Table3Group{Group: g, Sites: byGroup[g]})
	}
	return &out, nil
}

// Render formats the group table.
func (t *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III — grouping of the CapsNet inference operations\n")
	fmt.Fprintf(&b, "%-3s %-14s %-60s %5s\n", "#", "group", "description", "sites")
	for i, g := range t.Groups {
		fmt.Fprintf(&b, "%-3d %-14s %-60s %5d\n", i+1, g.Group, g.Group.Description(), len(g.Sites))
	}
	return b.String()
}

// GroupSweepResult holds one benchmark's group-wise resilience curves
// (Fig. 9 for DeepCaps/CIFAR, Fig. 12 for the other four benchmarks).
type GroupSweepResult struct {
	Benchmark Benchmark
	Clean     float64
	Groups    []core.GroupResult
}

// Overrides optionally replaces the analysis knobs of a job-shaped sweep
// entry point. The zero value reproduces the paper defaults, so results
// submitted without overrides are byte-identical to the corresponding CLI
// experiment (same seed, same options fingerprint).
type Overrides struct {
	// NMSweep replaces the noise-magnitude grid (nil keeps the entry
	// point's default grid); for fault sweeps it is the severity grid
	// (flip probability or stuck fraction). The grid is normalized by
	// Options.WithDefaults.
	NMSweep []float64 `json:"nm_sweep,omitempty"`
	// NA replaces the noise average (paper default 0).
	NA float64 `json:"na,omitempty"`
}

// GroupSweep runs methodology Steps 1–3 (the group-wise resilience
// analysis of Fig. 9/12) on one benchmark. It is the job-shaped entry
// point shared by the CLI experiments and the analysis service: it
// returns the structured result (Render/WriteCSV produce the CLI's
// artifacts) instead of printing.
func (r *Runner) GroupSweep(b Benchmark, ov Overrides) (*GroupSweepResult, error) {
	a, err := r.analyzer(b, core.Options{Seed: 21}, ov)
	if err != nil {
		return nil, err
	}
	ctx := r.ctx()
	clean, err := a.CleanAccuracyCtx(ctx)
	if err != nil {
		return nil, err
	}
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		return nil, err
	}
	return &GroupSweepResult{
		Benchmark: b,
		Clean:     clean,
		Groups:    groups,
	}, nil
}

// Fig9 is the group-wise resilience of DeepCaps on the CIFAR-like
// dataset.
func (r *Runner) Fig9() (*GroupSweepResult, error) {
	return r.GroupSweep(CaseStudyBenchmark, Overrides{})
}

// Fig12 is the group-wise resilience of every benchmark except Fig. 9's.
func (r *Runner) Fig12() ([]*GroupSweepResult, error) {
	var out []*GroupSweepResult
	for _, b := range Benchmarks {
		if b == CaseStudyBenchmark {
			continue
		}
		res, err := r.GroupSweep(b, Overrides{})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Render formats the accuracy-drop curves as a table plus an ASCII chart
// (the text analogue of the paper's Fig. 9/12 panels).
func (g *GroupSweepResult) Render() string {
	return renderCurves(fmt.Sprintf("group-wise resilience — %s on %s (clean %.2f%%)\n",
		g.Benchmark.Arch, g.Benchmark.Dataset, 100*g.Clean),
		"NM", "accuracy drop [%] vs noise magnitude", g.Groups)
}

// renderCurves formats group-wise accuracy-drop curves as a table plus an
// ASCII line chart under the given header line. Group sweeps and fault
// campaigns differ only in that header, the severity-axis label and the
// chart title.
func renderCurves(header, axis, title string, groups []core.GroupResult) string {
	var b strings.Builder
	b.WriteString(header)
	fmt.Fprintf(&b, "%-14s", axis)
	for _, p := range groups[0].Points {
		fmt.Fprintf(&b, "%8.3g", p.NM)
	}
	b.WriteString("\n")
	for _, gr := range groups {
		fmt.Fprintf(&b, "%-14s", gr.Group)
		for _, p := range gr.Points {
			fmt.Fprintf(&b, "%+8.1f", 100*p.Drop)
		}
		status := ""
		if gr.Resilient {
			status = "  [RESILIENT]"
		}
		fmt.Fprintf(&b, "  (accuracy drop %%)%s\n", status)
	}
	b.WriteString("\n")
	c := &plot.Chart{Title: title, XLabel: axis + " (descending)", Height: 12}
	for _, p := range groups[0].Points {
		c.XTicks = append(c.XTicks, fmt.Sprintf("%.3g", p.NM))
	}
	c.Width = 6 * len(c.XTicks)
	for _, gr := range groups {
		s := plot.Series{Name: gr.Group.String()}
		for _, p := range gr.Points {
			s.Values = append(s.Values, 100*p.Drop)
		}
		c.Series = append(c.Series, s)
	}
	b.WriteString(c.Render())
	return b.String()
}

// Fig10Result is the layer-wise resilience of the non-resilient groups
// (DeepCaps on the CIFAR-like dataset).
type Fig10Result struct {
	Benchmark Benchmark
	Clean     float64
	Layers    []core.LayerResult
}

// Fig10 runs methodology Steps 4–5 on the Fig. 9 outcome.
func (r *Runner) Fig10() (*Fig10Result, error) {
	return r.LayerSweep(CaseStudyBenchmark, Overrides{})
}

// LayerSweep runs methodology Steps 1–5 (group-wise plus the layer-wise
// resilience analysis of the non-resilient groups, Fig. 10) on one
// benchmark — the job-shaped generalization of Fig10.
func (r *Runner) LayerSweep(b Benchmark, ov Overrides) (*Fig10Result, error) {
	a, err := r.analyzer(b, core.Options{Seed: 22}, ov)
	if err != nil {
		return nil, err
	}
	ctx := r.ctx()
	clean, err := a.CleanAccuracyCtx(ctx)
	if err != nil {
		return nil, err
	}
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		return nil, err
	}
	layers, err := a.AnalyzeLayers(ctx, groups, clean)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Benchmark: b, Clean: clean, Layers: layers}, nil
}

// Render formats the per-layer tolerated noise magnitudes.
func (f *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — layer-wise resilience of non-resilient groups (%s on %s)\n",
		f.Benchmark.Arch, f.Benchmark.Dataset)
	fmt.Fprintf(&b, "%-10s %-14s %12s %s\n", "layer", "group", "tolerated NM", "")
	for _, l := range f.Layers {
		mark := ""
		if l.Resilient {
			mark = "(resilient)"
		}
		fmt.Fprintf(&b, "%-10s %-14s %12.3f %s\n", l.Layer, l.Group, l.ToleratedNM, mark)
	}
	return b.String()
}

// DesignResult wraps the full 6-step methodology outcome for one
// benchmark (the paper's final output: an approximate CapsNet design).
type DesignResult struct {
	Report *core.Report
	// profiles are kept for RefineDesign.
	profiles []core.ComponentProfile
}

// Design runs the complete ReD-CaNe methodology on one benchmark using
// the real conv-input distribution for component characterization.
func (r *Runner) Design(b Benchmark) (*DesignResult, error) {
	a, err := r.analyzer(b, core.Options{Seed: 23}, Overrides{})
	if err != nil {
		return nil, err
	}
	fig11, err := r.Fig11()
	if err != nil {
		return nil, err
	}
	samples := 20000
	if r.Cfg.Quick {
		samples = 5000
	}
	// Characterize the library at every standard accumulation depth so
	// Step 6 matches each site against the profile measured at the chain
	// length closest to its layer's real MAC fan-in (Fig. 6).
	profiles := core.ProfileLibraryDepths(
		approx.EmpiricalDist(fig11.PoolA, fig11.PoolB), core.LibraryChainLens, samples, r.Cfg.Seed+9)
	report, err := a.RunMethodology(r.ctx(), profiles)
	if err != nil {
		return nil, err
	}
	return &DesignResult{Report: report, profiles: profiles}, nil
}

// Render formats the design report.
func (d *DesignResult) Render() string { return core.FormatReport(d.Report) }

// WriteJSON writes the design report as JSON.
func (d *DesignResult) WriteJSON(w io.Writer) error { return d.Report.WriteJSON(w) }

// RefineDesign applies the validate-and-repair extension (core.Refine) to
// an existing design: while the composed approximate CapsNet exceeds the
// tolerable accuracy drop, the noisiest component assignment is upgraded.
// It analyzes with Design's seed, so every upgrade is validated under the
// noise draw that validated the design.
func (r *Runner) RefineDesign(b Benchmark, d *DesignResult) (core.RefineResult, error) {
	a, err := r.analyzer(b, core.Options{Seed: 23}, Overrides{})
	if err != nil {
		return core.RefineResult{}, err
	}
	return a.Refine(r.ctx(), d.Report.Choices, d.profiles, d.Report.CleanAccuracy, d.Report.ValidatedAccuracy, r.threshold(), 50)
}
