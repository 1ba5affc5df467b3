package experiments

import (
	"fmt"
	"strings"

	"redcane/internal/core"
	"redcane/internal/noise"
)

// SelectionRow is one design point of the selection-strategy comparison.
type SelectionRow struct {
	Design string
	// Accuracy is the validated accuracy with all sites injected.
	Accuracy float64
	// MulSaving is the multiplier-energy saving of the design.
	MulSaving float64
}

// SelectionResult compares ReD-CaNe's heterogeneous per-operation
// component selection against uniform designs that deploy one library
// component everywhere — the homogeneous baselines implicit in prior CNN
// work (e.g. ALWANN-style single-component substitution). The methodology
// earns its keep if its design dominates the uniform frontier: more
// saving at equal accuracy, or more accuracy at equal saving.
type SelectionResult struct {
	Benchmark Benchmark
	Clean     float64
	ReDCaNe   SelectionRow
	Uniform   []SelectionRow
}

// AblationSelectionStrategy evaluates the frontier on one benchmark.
func (r *Runner) AblationSelectionStrategy(b Benchmark) (*SelectionResult, error) {
	design, err := r.Design(b)
	if err != nil {
		return nil, err
	}
	a, clean, err := r.ablation(b, 0)
	if err != nil {
		return nil, err
	}

	out := &SelectionResult{
		Benchmark: b,
		Clean:     clean,
		ReDCaNe: SelectionRow{
			Design:    "red-cane (heterogeneous)",
			Accuracy:  design.Report.ValidatedAccuracy,
			MulSaving: design.Report.MulEnergySaving,
		},
	}

	// Uniform designs: every site carries one component's noise. The
	// multi-depth library profiles each component at several chain
	// lengths, so the rows group by component and every site draws the NM
	// measured at the depth closest to its layer's MAC fan-in.
	sites := a.Net.Sites()
	mulOps := a.Net.OpsByLayer(1)
	var totalMul float64
	for _, c := range mulOps {
		totalMul += c.Mul
	}
	depths := a.Net.MACDepths()
	var order []string
	byName := map[string][]core.ComponentProfile{}
	for _, p := range design.Profiles() {
		if _, ok := byName[p.Component.Name]; !ok {
			order = append(order, p.Component.Name)
		}
		byName[p.Component.Name] = append(byName[p.Component.Name], p)
	}
	for _, name := range order {
		ps := byName[name]
		var lens []int
		for _, p := range ps {
			if p.ChainLen > 0 {
				lens = append(lens, p.ChainLen)
			}
		}
		params := map[noise.Site]noise.Params{}
		for _, s := range sites {
			best := ps[0]
			if len(ps) > 1 {
				pick := core.PickChainLen(lens, depths[s.Layer])
				for _, p := range ps {
					if p.ChainLen == pick {
						best = p
						break
					}
				}
			}
			params[s] = noise.Params{NM: best.NM, NA: 0}
		}
		acc, err := a.Evaluate(r.ctx(), nil, noise.NewPerSite(params, r.Cfg.Seed+71), "")
		if err != nil {
			return nil, err
		}
		out.Uniform = append(out.Uniform, SelectionRow{
			Design:    "uniform " + name,
			Accuracy:  acc,
			MulSaving: ps[0].Component.PowerReduction(),
		})
	}
	return out, nil
}

// Profiles exposes the component profiles a design was built from.
func (d *DesignResult) Profiles() []core.ComponentProfile { return d.profiles }

// Render formats the frontier comparison.
func (s *SelectionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — selection strategy frontier (%s on %s, clean %.2f%%)\n",
		s.Benchmark.Arch, s.Benchmark.Dataset, 100*s.Clean)
	fmt.Fprintf(&b, "%-28s %12s %14s\n", "design", "accuracy", "mul saving")
	row := func(r SelectionRow) {
		fmt.Fprintf(&b, "%-28s %11.2f%% %13.1f%%\n", r.Design, 100*r.Accuracy, 100*r.MulSaving)
	}
	row(s.ReDCaNe)
	for _, u := range s.Uniform {
		row(u)
	}
	return b.String()
}

// Dominates reports whether the ReD-CaNe design beats every uniform
// design that achieves at least the same accuracy minus the tolerance.
func (s *SelectionResult) Dominates(tolerance float64) bool {
	for _, u := range s.Uniform {
		if u.Accuracy >= s.ReDCaNe.Accuracy-tolerance && u.MulSaving > s.ReDCaNe.MulSaving {
			return false
		}
	}
	return true
}
