package axe

import (
	"math"
	"strings"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

func randT(seed uint64, shape ...int) *tensor.Tensor {
	return tensor.New(shape...).FillNormal(tensor.NewRNG(seed), 0, 0.5)
}

// lutConv2D runs the 8-bit quantized convolution with every partial
// product taken from mult's compiled LUT.
func lutConv2D(x, w, bias *tensor.Tensor, stride, pad int, mult approx.Multiplier) *tensor.Tensor {
	return quantConv2D(approx.CompileLUT(mult), x, w, bias, stride, pad, 8, nil, nil)
}

func TestQuantConv2DWithExactMultiplierApproximatesFloatConv(t *testing.T) {
	// With the exact multiplier, the only error is 8-bit quantization —
	// outputs must track the float convolution closely.
	x := randT(1, 2, 3, 8, 8)
	w := randT(2, 4, 3, 3, 3)
	b := randT(3, 4)
	ref := tensor.Conv2D(x, w, b, 1, 1)
	got := lutConv2D(x, w, b, 1, 1, approx.Exact{})
	if !got.SameShape(ref) {
		t.Fatalf("shape %v vs %v", got.Shape, ref.Shape)
	}
	refRange := ref.Range()
	for i := range ref.Data {
		if math.Abs(got.Data[i]-ref.Data[i]) > 0.05*refRange {
			t.Fatalf("quantized conv too far at %d: %g vs %g", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestQuantConv2DStride2WithPadding(t *testing.T) {
	x := randT(4, 1, 2, 7, 7)
	w := randT(5, 3, 2, 3, 3)
	ref := tensor.Conv2D(x, w, nil, 2, 1)
	got := lutConv2D(x, w, nil, 2, 1, approx.Exact{})
	refRange := ref.Range()
	for i := range ref.Data {
		if math.Abs(got.Data[i]-ref.Data[i]) > 0.05*refRange {
			t.Fatalf("padded quantized conv too far at %d: %g vs %g", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestQuantConv2DApproxWorseThanExact(t *testing.T) {
	x := randT(6, 2, 2, 6, 6)
	w := randT(7, 3, 2, 3, 3)
	ref := tensor.Conv2D(x, w, nil, 1, 0)
	exact := lutConv2D(x, w, nil, 1, 0, approx.Exact{})
	crude := lutConv2D(x, w, nil, 1, 0, approx.OperandTrunc{ABits: 6, BBits: 6, Compensate: true})
	errOf := func(y *tensor.Tensor) float64 {
		s := 0.0
		for i := range ref.Data {
			s += math.Abs(y.Data[i] - ref.Data[i])
		}
		return s
	}
	if errOf(crude) <= errOf(exact) {
		t.Fatalf("crude multiplier not worse: %g vs %g", errOf(crude), errOf(exact))
	}
}

func buildTinyNet(seed uint64) *caps.Network {
	mkCaps := func(name string, inCh, cp, dim, k, stride, pad int, s uint64) *caps.ConvCaps2D {
		return &caps.ConvCaps2D{
			LayerName: name, Caps: cp, Dim: dim,
			W:      tensor.New(cp*dim, inCh, k, k).FillGlorot(tensor.NewRNG(s), inCh*k*k, cp*dim*k*k),
			B:      tensor.New(cp * dim),
			Stride: stride, Pad: pad,
		}
	}
	return &caps.Network{
		NetName:    "tiny",
		InputShape: []int{1, 6, 6},
		Layers: []caps.Layer{
			mkCaps("Caps2D1", 1, 2, 4, 3, 2, 1, seed),
			&caps.ClassCaps{
				LayerName: "ClassCaps",
				InCaps:    2 * 3 * 3, InDim: 4, OutCaps: 3, OutDim: 8,
				W: tensor.New(2*3*3, 3, 8, 4).
					FillGlorot(tensor.NewRNG(seed+1), 4, 8),
				RoutingIterations: 3,
			},
		},
	}
}

// buildRoutingNet extends the tiny net with a ConvCaps3D so routing-MAC
// coverage (vote convolutions and class-capsule votes) is exercised.
func buildRoutingNet(seed uint64) *caps.Network {
	return &caps.Network{
		NetName:    "tiny3d",
		InputShape: []int{1, 6, 6},
		Layers: []caps.Layer{
			&caps.ConvCaps2D{
				LayerName: "Caps2D1", Caps: 2, Dim: 4,
				W:      tensor.New(8, 1, 3, 3).FillGlorot(tensor.NewRNG(seed), 9, 72),
				B:      tensor.New(8),
				Stride: 2, Pad: 1,
			},
			&caps.ConvCaps3D{
				LayerName: "Caps3D1",
				InCaps:    2, InDim: 4, OutCaps: 2, OutDim: 4,
				W:      tensor.New(2, 8, 4, 3, 3).FillGlorot(tensor.NewRNG(seed+1), 36, 72),
				Stride: 1, Pad: 1, RoutingIterations: 2,
			},
			&caps.ClassCaps{
				LayerName: "ClassCaps",
				InCaps:    2 * 3 * 3, InDim: 4, OutCaps: 3, OutDim: 8,
				W:                 tensor.New(2*3*3, 3, 8, 4).FillGlorot(tensor.NewRNG(seed+2), 4, 8),
				RoutingIterations: 3,
			},
		},
	}
}

func TestQuantExactHighBitsConvergesToFloat(t *testing.T) {
	// The equivalence ladder's first rung: at a generous wordlength the
	// exact quantized backend must track the float backend closely on the
	// full forward pass.
	net := buildTinyNet(10)
	x := randT(11, 4, 1, 6, 6)
	ref := net.ForwardExec(x, noise.None{}, caps.Float{})
	got := net.ForwardExec(x, noise.None{}, QuantExact{Bits: 16})
	if !got.SameShape(ref) {
		t.Fatalf("shape %v vs %v", got.Shape, ref.Shape)
	}
	refRange := ref.Range()
	for i := range ref.Data {
		if math.Abs(got.Data[i]-ref.Data[i]) > 0.01*refRange {
			t.Fatalf("16-bit forward too far at %d: %g vs %g", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestQuantExactClassifyMostlyMatchesFloat(t *testing.T) {
	net := buildTinyNet(10)
	x := randT(11, 4, 1, 6, 6)
	clean := net.ClassifyFromExec(0, x, noise.None{}, nil, caps.Float{})
	got := net.ClassifyFromExec(0, x, noise.None{}, nil, QuantExact{Bits: 8})
	same := 0
	for i := range clean {
		if clean[i] == got[i] {
			same++
		}
	}
	// 8-bit quantization may flip borderline samples but most must agree.
	if same < len(clean)-1 {
		t.Fatalf("quant-exact backend disagrees: %v vs %v", got, clean)
	}
}

func TestQuantApproxExactAssignmentsMatchQuantExactBitwise(t *testing.T) {
	// Exact and nil assignments carry no approximation, so the design
	// backend must collapse to the exact quantized backend bit-for-bit.
	net := buildRoutingNet(12)
	x := randT(13, 3, 1, 6, 6)
	be, err := NewQuantApprox(8, map[string]approx.Multiplier{
		"Caps2D1": approx.Exact{}, "ClassCaps": nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if be.ApproxLayer("Caps2D1") || be.ApproxLayer("ClassCaps") {
		t.Fatal("exact/nil assignments must not mark layers approximate")
	}
	if be.ExactBaseline() != caps.Backend(QuantExact{Bits: 8}) {
		t.Fatalf("ExactBaseline %q != %q", be.ExactBaseline().Name(), (QuantExact{Bits: 8}).Name())
	}
	ref := net.ForwardExec(x, noise.None{}, QuantExact{Bits: 8})
	got := net.ForwardExec(x, noise.None{}, be)
	for i := range ref.Data {
		if ref.Data[i] != got.Data[i] {
			t.Fatalf("exact-assignment backend diverges at %d: %g vs %g", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestQuantApproxSharedPrefixBitIdenticalToQuantExact(t *testing.T) {
	// Layers before the first approximate site run the exact quantized
	// path — the invariant the sweep engine's prefix cache relies on
	// (equal exact baseline => bit-identical prefix).
	net := buildRoutingNet(14)
	x := randT(15, 3, 1, 6, 6)
	be, err := NewQuantApprox(8, map[string]approx.Multiplier{
		"ClassCaps": approx.OperandTrunc{ABits: 5, BBits: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	frontier := net.BackendFrontier(be)
	if frontier != 2 {
		t.Fatalf("frontier = %d, want 2 (ClassCaps)", frontier)
	}
	ref := net.ForwardToExec(frontier, x, noise.None{}, QuantExact{Bits: 8})
	got := net.ForwardToExec(frontier, x, noise.None{}, be)
	for i := range ref.Data {
		if ref.Data[i] != got.Data[i] {
			t.Fatal("exact prefix must be bit-identical across backends sharing a baseline")
		}
	}
}

func TestQuantApproxRoutingMACCoverage(t *testing.T) {
	// Approximate multipliers must reach the capsule vote MACs — both the
	// ConvCaps3D vote convolutions and the ClassCaps votes — not only the
	// plain convolution layers.
	net := buildRoutingNet(16)
	x := randT(17, 3, 1, 6, 6)
	ref := net.ForwardExec(x, noise.None{}, QuantExact{Bits: 8})
	for _, layer := range []string{"Caps3D1", "ClassCaps"} {
		be, err := NewQuantApprox(8, map[string]approx.Multiplier{
			layer: approx.OperandTrunc{ABits: 4, BBits: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !be.ApproxLayer(layer) {
			t.Fatalf("ApproxLayer(%q) = false", layer)
		}
		got := net.ForwardExec(x, noise.None{}, be)
		diff := false
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatalf("approximating %s did not change the forward pass", layer)
		}
	}
}

func TestNewQuantApproxRejectsWideBitsWithApproximateMults(t *testing.T) {
	_, err := NewQuantApprox(12, map[string]approx.Multiplier{"L": approx.DRUM{K: 6}})
	if err == nil {
		t.Fatal("expected error: 8-bit LUTs cannot serve a 12-bit layer")
	}
	if !strings.Contains(err.Error(), "12") {
		t.Fatalf("error should name the wordlength: %v", err)
	}
	// Exact-only assignments are fine at any width — nothing approximate
	// to realize.
	if _, err := NewQuantApprox(12, map[string]approx.Multiplier{"L": approx.Exact{}}); err != nil {
		t.Fatal(err)
	}
}

func TestNewQuantApproxDedupesLUTCompilation(t *testing.T) {
	m := approx.DRUM{K: 6}
	be, err := NewQuantApprox(8, map[string]approx.Multiplier{"A": m, "B": m})
	if err != nil {
		t.Fatal(err)
	}
	if be.luts["A"] == nil || be.luts["A"] != be.luts["B"] {
		t.Fatal("identical multipliers must share one compiled LUT")
	}
}

func TestBackendNames(t *testing.T) {
	if got := (QuantExact{}).ExactBaseline().Name(); got != "quant-exact-8" {
		t.Fatalf("zero-value QuantExact baseline = %q, want quant-exact-8 (DefaultBits)", got)
	}
	if got := (caps.Float{}).ExactBaseline().Name(); got != "float" {
		t.Fatalf("Float baseline = %q", got)
	}
	be, err := NewQuantApprox(8, map[string]approx.Multiplier{"Conv1": approx.DRUM{K: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(be.Name(), "Conv1") {
		t.Fatalf("QuantApprox name should list approximate layers: %q", be.Name())
	}
}
