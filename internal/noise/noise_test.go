package noise

import (
	"math"
	"testing"

	"redcane/internal/tensor"
)

func TestGroupStringsMatchTableIII(t *testing.T) {
	want := map[Group]string{
		MACOutputs:   "MAC outputs",
		Activations:  "activations",
		Softmax:      "softmax",
		LogitsUpdate: "logits update",
	}
	for g, s := range want {
		if g.String() != s {
			t.Fatalf("%d.String() = %q, want %q", g, g.String(), s)
		}
		if g.Description() == "unknown" {
			t.Fatalf("%v has no description", g)
		}
	}
	if len(Groups()) != 4 {
		t.Fatalf("Groups() has %d entries, Table III has 4", len(Groups()))
	}
	if Group(99).String() != "unknown" {
		t.Fatal("out-of-range group must stringify as unknown")
	}
}

func TestNoneLeavesTensorUntouched(t *testing.T) {
	x := tensor.NewFrom([]float64{1, 2, 3}, 3)
	before := x.Clone()
	None{}.Inject(Site{Layer: "L", Group: MACOutputs}, x)
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			t.Fatal("None must not modify the tensor")
		}
	}
}

func TestGaussianNoiseStatisticsMatchEq3(t *testing.T) {
	// For a tensor with known range R, the injected noise must have
	// std ≈ NM·R and mean ≈ NA·R.
	x := tensor.New(100000)
	x.FillUniform(tensor.NewRNG(1), -2, 2) // R ≈ 4
	before := x.Clone()
	inj := NewGaussian(0.1, 0.05, All(), 7)
	inj.Inject(Site{Layer: "L", Group: MACOutputs}, x)
	delta := tensor.Sub(x, before)
	r := before.Range()
	if math.Abs(delta.Std()-0.1*r) > 0.005*r {
		t.Fatalf("noise std = %g, want %g", delta.Std(), 0.1*r)
	}
	if math.Abs(delta.Mean()-0.05*r) > 0.005*r {
		t.Fatalf("noise mean = %g, want %g", delta.Mean(), 0.05*r)
	}
}

func TestGaussianRespectsFilter(t *testing.T) {
	x := tensor.New(100).Fill(1)
	x.Data[0] = 0 // nonzero range
	inj := NewGaussian(0.5, 0.5, ForGroup(Softmax), 1)
	before := x.Clone()
	inj.Inject(Site{Layer: "Conv2D", Group: MACOutputs}, x)
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			t.Fatal("filtered-out site must not be perturbed")
		}
	}
	inj.Inject(Site{Layer: "Caps3D", Group: Softmax}, x)
	changed := false
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("selected site was not perturbed")
	}
}

func TestForLayerGroupFilter(t *testing.T) {
	f := ForLayerGroup("Caps2D3", Activations)
	if !f(Site{Layer: "Caps2D3", Group: Activations}) {
		t.Fatal("exact match rejected")
	}
	if f(Site{Layer: "Caps2D3", Group: MACOutputs}) {
		t.Fatal("wrong group accepted")
	}
	if f(Site{Layer: "Caps2D4", Group: Activations}) {
		t.Fatal("wrong layer accepted")
	}
}

func TestForSitesFilter(t *testing.T) {
	a := Site{Layer: "A", Group: MACOutputs}
	b := Site{Layer: "B", Group: Softmax}
	f := ForSites(a, b)
	if !f(a) || !f(b) {
		t.Fatal("listed sites rejected")
	}
	if f(Site{Layer: "C", Group: MACOutputs}) {
		t.Fatal("unlisted site accepted")
	}
}

func TestGaussianDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		x := tensor.New(50).FillUniform(tensor.NewRNG(3), 0, 1)
		inj := NewGaussian(0.2, 0, All(), 99)
		inj.Inject(Site{Layer: "L", Group: MACOutputs}, x)
		inj.Inject(Site{Layer: "M", Group: Activations}, x)
		return x.Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical injected noise")
		}
	}
}

func TestGaussianZeroNMNAIsIdentity(t *testing.T) {
	x := tensor.New(10).FillUniform(tensor.NewRNG(4), -1, 1)
	before := x.Clone()
	NewGaussian(0, 0, All(), 1).Inject(Site{Layer: "L", Group: MACOutputs}, x)
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			t.Fatal("NM=NA=0 must be a no-op")
		}
	}
}

func TestGaussianConstantTensorGetsNoNoise(t *testing.T) {
	// R(X)=0 for a constant tensor, so Eq. 3 yields zero noise.
	x := tensor.New(10).Fill(5)
	NewGaussian(0.5, 0.5, All(), 1).Inject(Site{Layer: "L", Group: MACOutputs}, x)
	for _, v := range x.Data {
		if v != 5 {
			t.Fatalf("constant tensor perturbed: %v", x.Data)
		}
	}
}

func TestNilFilterMeansAll(t *testing.T) {
	x := tensor.New(100).FillUniform(tensor.NewRNG(5), 0, 1)
	before := x.Clone()
	NewGaussian(0.3, 0, nil, 2).Inject(Site{Layer: "L", Group: MACOutputs}, x)
	changed := false
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("nil filter must behave as All()")
	}
}

func TestSiteRecorderOrderAndGroups(t *testing.T) {
	r := NewSiteRecorder()
	x := tensor.New(2)
	sites := []Site{
		{Layer: "Conv2D", Group: MACOutputs},
		{Layer: "Conv2D", Group: Activations},
		{Layer: "Caps3D", Group: Softmax},
		{Layer: "Conv2D", Group: MACOutputs}, // duplicate, batch 2
	}
	for _, s := range sites {
		r.Inject(s, x)
	}
	if len(r.Order) != 3 {
		t.Fatalf("recorded %d unique sites, want 3", len(r.Order))
	}
	if r.Order[0].Layer != "Conv2D" || r.Order[2].Group != Softmax {
		t.Fatalf("order = %+v", r.Order)
	}
	byGroup := r.ByGroup()
	if len(byGroup[MACOutputs]) != 1 || len(byGroup[Softmax]) != 1 {
		t.Fatalf("ByGroup = %+v", byGroup)
	}
}
