package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"redcane/internal/approx"
	"redcane/internal/fixed"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// Fig6Result reproduces Fig. 6: arithmetic-error distributions of the NGR
// and DM1 multiplier models for 1, 9 and 81 accumulated MACs, with their
// Gaussian interpolations.
type Fig6Result struct {
	Profiles []approx.ErrorProfile // 2 components × 3 chain lengths
}

// Fig6 characterizes the two paper-featured components.
func (r *Runner) Fig6() (*Fig6Result, error) {
	samples := 100000 // |I| = 10⁵ per scenario, as in the paper
	if r.Cfg.Quick {
		samples = 10000
	}
	comps, err := componentsByName("mul8u_NGR", "mul8u_DM1")
	if err != nil {
		return nil, err
	}
	models := approx.Models(comps)
	chains := []int{1, 9, 81}
	byChain := make([][]approx.ErrorProfile, len(chains))
	for k, chain := range chains {
		byChain[k] = approx.CharacterizeAll(models, approx.Uniform{}, chain, samples, r.Cfg.Seed+3)
	}
	var out Fig6Result
	for j, c := range comps {
		for k := range chains {
			p := byChain[k][j]
			p.Component = c.Name
			out.Profiles = append(out.Profiles, p)
		}
	}
	return &out, nil
}

// componentsByName looks up library components by name.
func componentsByName(names ...string) ([]approx.Component, error) {
	comps := make([]approx.Component, len(names))
	for i, name := range names {
		c, err := approx.ByName(name)
		if err != nil {
			return nil, err
		}
		comps[i] = c
	}
	return comps, nil
}

// Render formats the Gaussian fits and one histogram per component.
func (f *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — arithmetic-error distributions and Gaussian fits\n")
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %8s\n", "component", "MACs", "mean", "std", "KS")
	for _, p := range f.Profiles {
		fmt.Fprintf(&b, "%-12s %6d %12.2f %12.2f %8.3f\n",
			p.Component, p.ChainLen, p.Fit.Mean, p.Fit.Std, p.Fit.KS)
	}
	for _, p := range f.Profiles {
		if p.ChainLen != 9 {
			continue
		}
		fmt.Fprintf(&b, "\n%s, 9 MACs (error histogram):\n%s", p.Component, p.Hist.Render(40))
	}
	return b.String()
}

// captureGroup records (a sample of) the tensor values flowing through
// one operation group during forward passes.
type captureGroup struct {
	group  noise.Group
	values map[string][]float64
	cap    int
	stride int
}

func newCapture(g noise.Group, perLayerCap int) *captureGroup {
	return &captureGroup{group: g, values: map[string][]float64{}, cap: perLayerCap, stride: 7}
}

// Inject implements noise.Injector; it subsamples deterministically.
func (c *captureGroup) Inject(s noise.Site, x *tensor.Tensor) *tensor.Tensor {
	if s.Group != c.group {
		return x
	}
	vs := c.values[s.Layer]
	if len(vs) >= c.cap {
		return x
	}
	for i := 0; i < len(x.Data) && len(vs) < c.cap; i += c.stride {
		vs = append(vs, x.Data[i])
	}
	c.values[s.Layer] = vs
	return x
}

// Fig11Result reproduces Fig. 11: the distribution of (quantized) inputs
// to the convolutions of the trained DeepCaps on the CIFAR-like dataset.
type Fig11Result struct {
	// Overall is the 8-bit-code histogram over all conv inputs.
	Overall *tensor.Histogram
	// PerLayer holds code histograms for selected layers.
	PerLayer map[string]*tensor.Histogram
	// Pools are the quantized operand pools reused by Table IV's "real
	// distribution" column: activations (A) and weights (B).
	PoolA, PoolB []uint8
}

// Fig11 runs the trained DeepCaps on test images with a capture injector
// and histograms each layer's 8-bit conv-input codes.
func (r *Runner) Fig11() (*Fig11Result, error) {
	if r.fig11Memo != nil {
		return r.fig11Memo, nil
	}
	t, err := r.Trained(CaseStudyBenchmark)
	if err != nil {
		return nil, err
	}
	layers, acts, poolB := operandCodes(t, r.evalCap(), 40000)
	overall := tensor.NewHistogram(0, 256, 64)
	perLayer := map[string]*tensor.Histogram{}
	for i, layer := range layers {
		h := tensor.NewHistogram(0, 256, 64)
		for _, code := range acts[i] {
			h.Observe(float64(code))
			overall.Observe(float64(code))
		}
		perLayer[layer] = h
	}
	res := &Fig11Result{Overall: overall, PerLayer: perLayer, PoolA: slices.Concat(acts...), PoolB: poolB}
	r.fig11Memo = res
	return res, nil
}

// operandCodes captures the 8-bit operand codes of a trained network's
// convolutions on its first n test samples (the "real" operand
// distribution of Sec. III-B): each conv input's codes — at most
// perLayer samples, quantized on the layer's own range — for the layers
// in name order, and the code of every third weight of every conv kernel.
func operandCodes(t *Trained, n, perLayer int) (layers []string, acts [][]uint8, weights []uint8) {
	x := capEval(t, n)
	capAct := newCapture(noise.Activations, perLayer)
	t.Net.Forward(x, capAct)
	// The network input is also a conv input.
	vals := make([]float64, 0, perLayer)
	for i := 0; i < x.Len() && len(vals) < perLayer; i += 7 {
		vals = append(vals, x.Data[i])
	}
	capAct.values["Input"] = vals

	for l := range capAct.values {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		vs := capAct.values[l]
		q := fixed.Calibrate(tensor.NewFrom(append([]float64(nil), vs...), len(vs)), 8)
		codes := make([]uint8, len(vs))
		for i, v := range vs {
			codes[i] = uint8(q.Quantize(v))
		}
		acts = append(acts, codes)
	}

	var names []string
	params := t.Net.Params()
	for name := range params {
		if strings.HasSuffix(name, "/W") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		w := params[name]
		q := fixed.Calibrate(w, 8)
		for i := 0; i < w.Len(); i += 3 {
			weights = append(weights, uint8(q.Quantize(w.Data[i])))
		}
	}
	return layers, acts, weights
}

// Render formats the overall histogram and a focus on early caps layers.
func (f *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — distribution of conv-input samples (8-bit codes)\n")
	b.WriteString(f.Overall.Render(40))
	for _, layer := range []string{"Conv2D", "Caps2D1", "Caps2D5", "Caps2D9"} {
		h, ok := f.PerLayer[layer]
		if !ok {
			continue
		}
		peak, peakBin := 0, 0
		for i, c := range h.Counts {
			if c > peak {
				peak, peakBin = c, i
			}
		}
		fmt.Fprintf(&b, "layer %-8s: peak at code ≈ %.0f (%.1f%% of samples)\n",
			layer, h.BinCenter(peakBin), 100*h.Frequency(peakBin))
	}
	return b.String()
}

// Table4Row is one component row of Table IV.
type Table4Row struct {
	Name             string
	PowerUW, AreaUM2 float64
	PowerRed         float64
	// Modeled NM/NA use the uniform input distribution; Real use the
	// captured conv-input/weight pools.
	ModeledNA, ModeledNM float64
	RealNA, RealNM       float64
	// PaperModeledNM/NA are the paper's values for this component name.
	PaperModeledNM, PaperModeledNA float64
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 characterizes every library component under the modeled and the
// real input distributions.
func (r *Runner) Table4() (*Table4Result, error) {
	fig11, err := r.Fig11()
	if err != nil {
		return nil, err
	}
	real := approx.Empirical{Label: "deepcaps-cifar-conv-inputs", A: fig11.PoolA, B: fig11.PoolB}
	samples := 30000
	if r.Cfg.Quick {
		samples = 8000
	}
	lib := approx.Library()
	models := approx.Models(lib)
	modeled := approx.CharacterizeAll(models, approx.Uniform{}, 9, samples, r.Cfg.Seed+5)
	measured := approx.CharacterizeAll(models, real, 9, samples, r.Cfg.Seed+6)
	var out Table4Result
	for i, c := range lib {
		out.Rows = append(out.Rows, Table4Row{
			Name:    c.Name,
			PowerUW: c.PowerUW, AreaUM2: c.AreaUM2,
			PowerRed:  c.PowerReduction(),
			ModeledNA: modeled[i].NA, ModeledNM: modeled[i].NM,
			RealNA: measured[i].NA, RealNM: measured[i].NM,
			PaperModeledNM: c.PaperNM, PaperModeledNA: c.PaperNA,
		})
	}
	return &out, nil
}

// Render formats the component table.
func (t *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table IV — power, area and noise parameters of the multiplier library\n")
	fmt.Fprintf(&b, "%-12s %7s %7s | %9s %9s | %9s %9s | %9s\n",
		"multiplier", "µW", "µm²", "mod. NA", "mod. NM", "real NA", "real NM", "paper NM")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %4.0f(-%2.0f%%) %6.0f | %+9.4f %9.4f | %+9.4f %9.4f | %9.4f\n",
			r.Name, r.PowerUW, 100*r.PowerRed, r.AreaUM2,
			r.ModeledNA, r.ModeledNM, r.RealNA, r.RealNM, r.PaperModeledNM)
	}
	return b.String()
}
