package caps

import (
	"math"
	"testing"

	"redcane/internal/noise"
	"redcane/internal/tensor"
)

func rt(seed uint64, shape ...int) *tensor.Tensor {
	return tensor.New(shape...).FillNormal(tensor.NewRNG(seed), 0, 0.5)
}

func newConv(name string, in, out, k, stride, pad int, relu bool, seed uint64) *Conv2D {
	return &Conv2D{
		LayerName: name,
		W:         tensor.New(out, in, k, k).FillGlorot(tensor.NewRNG(seed), in*k*k, out*k*k),
		B:         tensor.New(out),
		Stride:    stride, Pad: pad, ReLU: relu,
	}
}

func newCaps2D(name string, inCh, caps, dim, k, stride, pad int, seed uint64) *ConvCaps2D {
	return &ConvCaps2D{
		LayerName: name, Caps: caps, Dim: dim,
		W:      tensor.New(caps*dim, inCh, k, k).FillGlorot(tensor.NewRNG(seed), inCh*k*k, caps*dim*k*k),
		B:      tensor.New(caps * dim),
		Stride: stride, Pad: pad,
	}
}

func newCaps3D(name string, inCaps, inDim, outCaps, outDim, k, stride, pad, iters int, seed uint64) *ConvCaps3D {
	return &ConvCaps3D{
		LayerName: name,
		InCaps:    inCaps, InDim: inDim, OutCaps: outCaps, OutDim: outDim,
		W:      tensor.New(inCaps, outCaps*outDim, inDim, k, k).FillGlorot(tensor.NewRNG(seed), inDim*k*k, outCaps*outDim*k*k),
		Stride: stride, Pad: pad, RoutingIterations: iters,
	}
}

func newClassCaps(name string, inCaps, inDim, outCaps, outDim, iters int, seed uint64) *ClassCaps {
	return &ClassCaps{
		LayerName: name,
		InCaps:    inCaps, InDim: inDim, OutCaps: outCaps, OutDim: outDim,
		W:                 tensor.New(inCaps, outCaps, outDim, inDim).FillGlorot(tensor.NewRNG(seed), inDim, outDim),
		RoutingIterations: iters,
	}
}

func TestConv2DForwardShapeAndSites(t *testing.T) {
	l := newConv("Conv2D", 3, 8, 3, 1, 1, true, 1)
	x := rt(2, 2, 3, 8, 8)
	y := l.Forward(x, noise.None{}, nil, Float{})
	want := []int{2, 8, 8, 8}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("shape = %v, want %v", y.Shape, want)
		}
	}
	sites := l.Sites()
	if len(sites) != 2 || sites[0].Group != noise.MACOutputs || sites[1].Group != noise.Activations {
		t.Fatalf("sites = %+v", sites)
	}
	// ReLU output must be nonnegative.
	for _, v := range y.Data {
		if v < 0 {
			t.Fatal("ReLU output negative")
		}
	}
}

func TestConv2DNoReLUSingleSite(t *testing.T) {
	l := newConv("C", 1, 2, 3, 1, 0, false, 3)
	if len(l.Sites()) != 1 {
		t.Fatalf("sites = %+v", l.Sites())
	}
}

func TestConvCaps2DSquashBoundsNorms(t *testing.T) {
	l := newCaps2D("Caps2D1", 4, 3, 4, 3, 2, 1, 4)
	x := rt(5, 2, 4, 8, 8)
	y := l.Forward(x, noise.None{}, nil, Float{})
	if y.Shape[1] != 12 {
		t.Fatalf("channels = %d, want caps*dim=12", y.Shape[1])
	}
	n, h, w := y.Shape[0], y.Shape[2], y.Shape[3]
	v := y.Reshape(n, 3, 4, h, w)
	norms := tensor.NormAxis(v, 2)
	for _, nv := range norms.Data {
		if nv >= 1 {
			t.Fatalf("capsule norm %g >= 1 after squash", nv)
		}
	}
}

func TestConvCaps3DForwardShapeAndRouting(t *testing.T) {
	l := newCaps3D("Caps3D", 4, 4, 5, 6, 3, 1, 1, 3, 7)
	x := rt(8, 2, 16, 4, 4) // 4 caps × 4 dim
	y := l.Forward(x, noise.None{}, nil, Float{})
	want := []int{2, 30, 4, 4} // 5 caps × 6 dim
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("shape = %v, want %v", y.Shape, want)
		}
	}
	// Routed outputs are squashed: norms < 1.
	v := y.Reshape(2, 5, 6, 4, 4)
	norms := tensor.NormAxis(v, 2)
	for _, nv := range norms.Data {
		if nv >= 1 {
			t.Fatalf("routed capsule norm %g >= 1", nv)
		}
	}
}

func TestRoutingLayersExposeAllFourGroups(t *testing.T) {
	for _, l := range []Layer{
		newCaps3D("Caps3D", 2, 4, 3, 4, 3, 1, 1, 3, 9),
		newClassCaps("ClassCaps", 8, 4, 10, 16, 3, 10),
	} {
		groups := map[noise.Group]bool{}
		for _, s := range l.Sites() {
			groups[s.Group] = true
		}
		for _, g := range noise.Groups() {
			if !groups[g] {
				t.Fatalf("%s missing group %v", l.Name(), g)
			}
		}
	}
}

func TestNonRoutingLayersHaveNoRoutingGroups(t *testing.T) {
	for _, l := range []Layer{
		newConv("Conv2D", 3, 4, 3, 1, 1, true, 11),
		newCaps2D("Caps2D1", 3, 2, 4, 3, 1, 1, 12),
	} {
		for _, s := range l.Sites() {
			if s.Group == noise.Softmax || s.Group == noise.LogitsUpdate {
				t.Fatalf("%s exposes routing group %v", l.Name(), s.Group)
			}
		}
	}
}

func TestClassCapsForwardShape(t *testing.T) {
	l := newClassCaps("ClassCaps", 2*3*3, 4, 10, 16, 3, 13)
	x := rt(14, 2, 8, 3, 3) // 2 caps × 4 dim at 3×3
	y := l.Forward(x, noise.None{}, nil, Float{})
	want := []int{2, 10, 16}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("shape = %v, want %v", y.Shape, want)
		}
	}
}

func TestClassCapsAcceptsRank3Input(t *testing.T) {
	l := newClassCaps("ClassCaps", 6, 4, 3, 8, 3, 15)
	x := rt(16, 2, 6, 4)
	y := l.Forward(x, noise.None{}, nil, Float{})
	if y.Shape[1] != 3 || y.Shape[2] != 8 {
		t.Fatalf("shape = %v", y.Shape)
	}
}

func TestFlattenToCapsRoundTrip(t *testing.T) {
	x := rt(51, 2, 8, 3, 3)
	flat := FlattenToCaps(x, 2*3*3, 4)
	if flat.Shape[1] != 18 || flat.Shape[2] != 4 {
		t.Fatalf("flatten shape = %v", flat.Shape)
	}
	// Rank-3 passthrough.
	again := FlattenToCaps(flat, 18, 4)
	if &again.Data[0] != &flat.Data[0] {
		t.Fatal("rank-3 input must pass through")
	}
}

func TestRoutingCouplingCoefficientsSeenByInjector(t *testing.T) {
	l := newClassCaps("CC", 4, 4, 3, 4, 3, 17)
	x := rt(18, 1, 4, 4)
	rec := noise.NewSiteRecorder()
	l.Forward(x, rec, nil, Float{})
	byGroup := rec.ByGroup()
	for _, g := range noise.Groups() {
		if len(byGroup[g]) == 0 {
			t.Fatalf("group %v never injected during routing forward", g)
		}
	}
}

func TestRoutingIterationsChangeOutput(t *testing.T) {
	// More routing iterations must actually change the output — guards
	// against accidentally ignoring the iteration count.
	x := rt(19, 1, 16, 4, 4)
	l1 := newCaps3D("C", 4, 4, 4, 4, 3, 1, 1, 1, 20)
	l3 := newCaps3D("C", 4, 4, 4, 4, 3, 1, 1, 3, 20)
	y1 := l1.Forward(x, noise.None{}, nil, Float{})
	y3 := l3.Forward(x, noise.None{}, nil, Float{})
	diff := 0.0
	for i := range y1.Data {
		diff += math.Abs(y1.Data[i] - y3.Data[i])
	}
	if diff == 0 {
		t.Fatal("routing iterations had no effect")
	}
}

func TestDynamicRoutingUniformCouplingFirstIteration(t *testing.T) {
	// With one iteration, routing reduces to a uniform average of votes
	// followed by squash (softmax of zero logits is uniform).
	inCaps, outCaps, outDim := 3, 2, 4
	votes := rt(21, 1, inCaps, outCaps, outDim, 1)
	got := dynamicRouting(votes, "L", 1, noise.None{}, nil, Nonlinearity{})
	// Manual: s_j = (1/outCaps)·Σ_i? No — softmax over j of zeros gives
	// 1/outCaps per (i, j); s_j = Σ_i (1/outCaps)·û_ij.
	s := tensor.New(1, outCaps, outDim, 1)
	for i := 0; i < inCaps; i++ {
		for j := 0; j < outCaps; j++ {
			for d := 0; d < outDim; d++ {
				s.Data[(j*outDim + d)] += votes.At(0, i, j, d, 0) / float64(outCaps)
			}
		}
	}
	want := tensor.Squash(s, 2)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("routing[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func buildTinyCell(seed uint64) *CapsCell {
	l1 := newCaps2D("Caps2D1", 8, 2, 4, 3, 2, 1, seed)
	l2 := newCaps2D("Caps2D2", 8, 2, 4, 3, 1, 1, seed+1)
	l3 := newCaps2D("Caps2D3", 8, 2, 4, 3, 1, 1, seed+2)
	skip := newCaps2D("Caps2D4", 8, 2, 4, 3, 1, 1, seed+3)
	return &CapsCell{CellName: "Cell1", L1: l1, L2: l2, L3: l3, Skip: skip}
}

func TestCapsCellForwardAndSites(t *testing.T) {
	cell := buildTinyCell(22)
	x := rt(23, 2, 8, 8, 8)
	y := cell.Forward(x, noise.None{}, nil, Float{})
	want := []int{2, 8, 4, 4}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("cell output shape = %v, want %v", y.Shape, want)
		}
	}
	if len(cell.Sites()) != 8 { // 4 layers × (MAC + activation)
		t.Fatalf("cell sites = %d, want 8", len(cell.Sites()))
	}
	if len(cell.Params()) != 8 { // 4 layers × (W + B)
		t.Fatalf("cell params = %d, want 8", len(cell.Params()))
	}
}

func TestNetworkForwardSitesParamsOps(t *testing.T) {
	net := &Network{
		NetName:    "tiny",
		InputShape: []int{1, 8, 8},
		Layers: []Layer{
			newConv("Conv2D", 1, 8, 3, 1, 1, true, 30),
			newCaps2D("Caps2D1", 8, 2, 4, 3, 2, 1, 31),
			newClassCaps("ClassCaps", 2*4*4, 4, 3, 8, 3, 32),
		},
	}
	x := rt(33, 4, 1, 8, 8)
	out := net.Forward(x, nil)
	if out.Shape[0] != 4 || out.Shape[1] != 3 || out.Shape[2] != 8 {
		t.Fatalf("net output shape = %v", out.Shape)
	}
	names := net.LayerNames()
	if len(names) != 3 || names[0] != "Conv2D" || names[2] != "ClassCaps" {
		t.Fatalf("layer names = %v", names)
	}
	if len(net.Params()) != 5 {
		t.Fatalf("params = %d, want 5", len(net.Params()))
	}
	ops := net.Ops(1)
	if ops.Mul <= 0 || ops.Sqrt <= 0 || ops.Exp <= 0 {
		t.Fatalf("ops = %+v", ops)
	}
	// Ops must scale linearly with batch.
	ops2 := net.Ops(2)
	if math.Abs(ops2.Mul-2*ops.Mul) > 1e-6 {
		t.Fatalf("ops not linear in batch: %g vs %g", ops2.Mul, ops.Mul)
	}
}

func TestNetworkClassifyAndAccuracy(t *testing.T) {
	net := &Network{
		NetName:    "tiny",
		InputShape: []int{1, 6, 6},
		Layers: []Layer{
			newCaps2D("Caps2D1", 1, 2, 4, 3, 2, 1, 40),
			newClassCaps("ClassCaps", 2*3*3, 4, 3, 8, 3, 41),
		},
	}
	x := rt(42, 6, 1, 6, 6)
	preds := net.ClassifyFromExec(0, x, noise.None{}, nil, Float{})
	if len(preds) != 6 {
		t.Fatalf("preds = %v", preds)
	}
	// Each prediction is the class capsule with the largest norm.
	scores := tensor.NormAxis(net.Forward(x, noise.None{}), 2)
	for b, p := range preds {
		if p < 0 || p >= 3 {
			t.Fatalf("class %d out of range", p)
		}
		for c := 0; c < 3; c++ {
			if scores.At(b, c) > scores.At(b, p) {
				t.Fatalf("sample %d: class %d scores %g above predicted %d (%g)", b, c, scores.At(b, c), p, scores.At(b, p))
			}
		}
	}
}

func TestNoiseInMACOutputsPerturbsPredictionsMoreThanSoftmax(t *testing.T) {
	// A miniature version of the paper's headline claim: at equal NM,
	// injecting into MAC outputs disturbs class scores more than
	// injecting into routing softmax coefficients.
	net := &Network{
		NetName:    "tiny",
		InputShape: []int{1, 6, 6},
		Layers: []Layer{
			newCaps2D("Caps2D1", 1, 4, 4, 3, 2, 1, 50),
			newClassCaps("ClassCaps", 4*3*3, 4, 3, 8, 3, 51),
		},
	}
	x := rt(52, 8, 1, 6, 6)
	classScores := func(inj noise.Injector) *tensor.Tensor { return tensor.NormAxis(net.Forward(x, inj), 2) }
	clean := classScores(noise.None{})

	drift := func(g noise.Group) float64 {
		d := 0.0
		for trial := uint64(0); trial < 5; trial++ {
			inj := noise.NewGaussian(0.3, 0, noise.ForGroup(g), 100+trial)
			noisy := classScores(inj)
			for i := range clean.Data {
				d += math.Abs(noisy.Data[i] - clean.Data[i])
			}
		}
		return d
	}
	macDrift := drift(noise.MACOutputs)
	smDrift := drift(noise.Softmax)
	if macDrift <= smDrift {
		t.Fatalf("MAC drift %g <= softmax drift %g; resilience ordering violated", macDrift, smDrift)
	}
}

func TestCellBranchShapeMismatchPanics(t *testing.T) {
	cell := buildTinyCell(60)
	cell.Skip = newCaps2D("Caps2D4", 8, 2, 4, 3, 2, 1, 61) // stride 2 → mismatch
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on branch shape mismatch")
		}
	}()
	cell.Forward(rt(62, 1, 8, 8, 8), noise.None{}, nil, Float{})
}
