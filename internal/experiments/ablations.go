package experiments

import (
	"fmt"
	"sort"
	"strings"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/core"
	"redcane/internal/fixed"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// RoutingIterationsResult is the ablation behind the paper's explanation
// for routing-layer resilience: "the coefficients are updated dynamically
// at run-time, thus they can adapt to the noise" (Sec. VI-A). If that is
// the mechanism, resilience to routing-group noise should grow with the
// number of routing iterations.
type RoutingIterationsResult struct {
	Benchmark Benchmark
	NM        float64
	// DropByIters maps routing iteration count → accuracy drop under
	// noise injected into the softmax + logits-update groups.
	DropByIters map[int]float64
	Clean       float64
}

// AblationRoutingIterations measures routing-noise resilience at 1, 2 and
// 3 routing iterations on the trained DeepCaps.
func (r *Runner) AblationRoutingIterations() (*RoutingIterationsResult, error) {
	t, err := r.Trained(CaseStudyBenchmark)
	if err != nil {
		return nil, err
	}
	// Locate the mutable routing layers.
	var routing []*int
	for _, l := range t.Net.Layers {
		switch v := l.(type) {
		case *caps.ClassCaps:
			routing = append(routing, &v.RoutingIterations)
		case *caps.CapsCell:
			if c3d, ok := v.Skip.(*caps.ConvCaps3D); ok {
				routing = append(routing, &c3d.RoutingIterations)
			}
		}
	}
	orig := make([]int, len(routing))
	for i, p := range routing {
		orig[i] = *p
	}
	defer func() {
		for i, p := range routing {
			*p = orig[i]
		}
	}()

	const nm = 0.1
	// Inject into the routing layers' vote tensors (MAC outputs): if the
	// paper's adaptation mechanism holds, extra routing iterations give
	// the coupling coefficients more chances to steer around the noise.
	filter := func(s noise.Site) bool {
		return s.Group == noise.MACOutputs && (s.Layer == "Caps3D" || s.Layer == "ClassCaps")
	}
	out := &RoutingIterationsResult{
		Benchmark:   t.Benchmark,
		NM:          nm,
		DropByIters: map[int]float64{},
	}
	for _, iters := range []int{1, 2, 3} {
		for _, p := range routing {
			*p = iters
		}
		// A fresh analyzer per iteration count, since a retained clean
		// prefix would replay the previous count's routing. Double the
		// usual evaluation cap: this ablation compares three drop
		// estimates against each other, so it needs tighter error bars
		// than a single sweep point (quick mode's 60 samples quantize at
		// 1.7 pp).
		a, clean, err := r.ablation(t.Benchmark, 2*r.evalCap())
		if err != nil {
			return nil, err
		}
		noisy := 0.0
		// This ablation compares three drop estimates against each other,
		// so it needs a steadier average than the sweep default (quick
		// mode's single trial of 60 samples jitters by whole percent).
		trials := r.trials()
		if trials < 3 {
			trials = 3
		}
		for tr := 0; tr < trials; tr++ {
			acc, err := a.Evaluate(r.ctx(), nil, noise.NewGaussian(nm, 0, filter, r.Cfg.Seed+31+uint64(tr)), "")
			if err != nil {
				return nil, err
			}
			noisy += acc
		}
		noisy /= float64(trials)
		out.DropByIters[iters] = noisy - clean
		if iters == orig[0] {
			out.Clean = clean
		}
	}
	return out, nil
}

// Render formats the iteration ablation.
func (a *RoutingIterationsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — routing iterations vs routing-noise resilience (NM=%.2f)\n", a.NM)
	for _, it := range []int{1, 2, 3} {
		fmt.Fprintf(&b, "  %d iterations: accuracy drop %+0.2f%%\n", it, 100*a.DropByIters[it])
	}
	return b.String()
}

// NoiseVsLUTRow compares, for one component, the accuracy under genuine
// quantized approximate-multiplier execution against the accuracy the
// Gaussian noise model predicts for the same component.
type NoiseVsLUTRow struct {
	Component string
	// LUTAccuracy runs every convolution through the component's LUT.
	LUTAccuracy float64
	// ModelAccuracy injects the component's measured NM at every conv
	// MAC-output site.
	ModelAccuracy float64
}

// NoiseVsLUTResult validates the paper's central modeling assumption.
type NoiseVsLUTResult struct {
	Benchmark Benchmark
	Clean     float64
	Rows      []NoiseVsLUTRow
}

// AblationNoiseVsLUT runs the comparison on the trained CapsNet (small
// enough for LUT execution of every conv).
func (r *Runner) AblationNoiseVsLUT() (*NoiseVsLUTResult, error) {
	t, err := r.Trained(DefaultBenchmark)
	if err != nil {
		return nil, err
	}
	n := min(r.evalCap(), 100)
	a, clean, err := r.ablation(t.Benchmark, n)
	if err != nil {
		return nil, err
	}

	// Characterize against this network's own operand distribution, as
	// the methodology prescribes (Sec. III-B: NM is application
	// dependent).
	poolA, poolB := operandPools(t, n)
	dist := approx.EmpiricalDist(poolA, poolB)

	convLayers := []string{"Conv2D", "Primary"}
	depths := t.Net.MACDepths()
	out := &NoiseVsLUTResult{Benchmark: t.Benchmark, Clean: clean}
	for _, name := range []string{"mul8u_NGR", "mul8u_DM1", "mul8u_JV3", "mul8u_QKX"} {
		c, err := approx.ByName(name)
		if err != nil {
			return nil, err
		}
		mults := map[string]approx.Multiplier{}
		for _, l := range convLayers {
			mults[l] = c.Model
		}
		// True execution: the shared engine runs the convs through the
		// component's LUT.
		be, err := axe.NewQuantApprox(fixed.DefaultBits, mults)
		if err != nil {
			return nil, err
		}
		lutAcc, err := a.Evaluate(r.ctx(), be, nil, "")
		if err != nil {
			return nil, err
		}

		// Noise-model prediction: per-site NM/NA characterized at each
		// layer's own accumulation depth (Fig. 6: the error profile
		// shifts with chain length).
		profByLen := map[int]approx.ErrorProfile{}
		params := map[noise.Site]noise.Params{}
		for _, l := range convLayers {
			cl := core.PickChainLen(core.LibraryChainLens, depths[l])
			prof, ok := profByLen[cl]
			if !ok {
				prof = approx.Characterize(c.Model, dist, cl, 20000, r.Cfg.Seed+41)
				profByLen[cl] = prof
			}
			params[noise.Site{Layer: l, Group: noise.MACOutputs}] = noise.Params{NM: prof.NM, NA: prof.NA}
		}
		modelAcc, err := a.Evaluate(r.ctx(), nil, noise.NewPerSite(params, r.Cfg.Seed+42), "")
		if err != nil {
			return nil, err
		}

		out.Rows = append(out.Rows, NoiseVsLUTRow{
			Component:     c.Name,
			LUTAccuracy:   lutAcc,
			ModelAccuracy: modelAcc,
		})
	}
	return out, nil
}

// Render formats the validation table.
func (a *NoiseVsLUTResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Gaussian noise model vs true LUT execution (%s on %s, clean %.2f%%)\n",
		a.Benchmark.Arch, a.Benchmark.Dataset, 100*a.Clean)
	fmt.Fprintf(&b, "%-12s %14s %16s\n", "component", "LUT acc [%]", "model acc [%]")
	for _, row := range a.Rows {
		fmt.Fprintf(&b, "%-12s %14.2f %16.2f\n", row.Component, 100*row.LUTAccuracy, 100*row.ModelAccuracy)
	}
	return b.String()
}

// NoiseAverageResult extends the paper's NA = 0 choice: accuracy drop as
// a function of the noise average at fixed NM, showing how biased
// components (large |NA|) hurt more than unbiased ones.
type NoiseAverageResult struct {
	Benchmark Benchmark
	NM        float64
	// Points maps NA → accuracy drop.
	NAs   []float64
	Drops []float64
}

// AblationNoiseAverage sweeps NA at fixed NM on the MAC outputs of the
// trained DeepCaps.
func (r *Runner) AblationNoiseAverage() (*NoiseAverageResult, error) {
	a, clean, err := r.ablation(CaseStudyBenchmark, 0)
	if err != nil {
		return nil, err
	}
	const nm = 0.005
	out := &NoiseAverageResult{Benchmark: CaseStudyBenchmark, NM: nm}
	for _, na := range []float64{-0.05, -0.02, -0.005, 0, 0.005, 0.02, 0.05} {
		inj := noise.NewGaussian(nm, na, noise.ForGroup(noise.MACOutputs), r.Cfg.Seed+51)
		acc, err := a.Evaluate(r.ctx(), nil, inj, "")
		if err != nil {
			return nil, err
		}
		out.NAs = append(out.NAs, na)
		out.Drops = append(out.Drops, acc-clean)
	}
	return out, nil
}

// Render formats the NA sweep.
func (a *NoiseAverageResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — noise average sensitivity at NM=%.3f (MAC outputs)\n", a.NM)
	for i, na := range a.NAs {
		fmt.Fprintf(&b, "  NA=%+0.3f: accuracy drop %+0.2f%%\n", na, 100*a.Drops[i])
	}
	return b.String()
}

// operandPools captures the quantized conv-input activations and weights
// of a trained network on its first n test samples (the "real" operand
// distribution of Sec. III-B).
func operandPools(t *Trained, n int) (poolA, poolB []uint8) {
	x := capEval(t, n)
	capAct := newCapture(noise.Activations, 20000)
	t.Net.Forward(x, capAct)
	vals := make([]float64, 0, 20000)
	for i := 0; i < x.Len() && len(vals) < 20000; i += 7 {
		vals = append(vals, x.Data[i])
	}
	capAct.values["Input"] = vals

	layers := make([]string, 0, len(capAct.values))
	for l := range capAct.values {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		vs := capAct.values[l]
		q := fixed.Calibrate(tensor.NewFrom(append([]float64(nil), vs...), len(vs)), 8)
		for _, v := range vs {
			poolA = append(poolA, uint8(q.Quantize(v)))
		}
	}

	names := make([]string, 0)
	allParams := t.Net.Params()
	for n := range allParams {
		if strings.HasSuffix(n, "/W") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w := allParams[n]
		q := fixed.Calibrate(w, 8)
		for i := 0; i < w.Len(); i += 3 {
			poolB = append(poolB, uint8(q.Quantize(w.Data[i])))
		}
	}
	return poolA, poolB
}

// capEval slices the first n test samples of a trained benchmark.
func capEval(t *Trained, n int) *tensor.Tensor {
	total := t.Data.TestX.Shape[0]
	if n > total || n <= 0 {
		n = total
	}
	sample := t.Data.TestX.Len() / total
	return tensor.NewFrom(t.Data.TestX.Data[:n*sample], append([]int{n}, t.Data.TestX.Shape[1:]...)...)
}
