package models

import (
	"fmt"
	"math"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/params"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

func TestDeepCapsGeometryAndLayerInventory(t *testing.T) {
	spec := DeepCaps([]int{3, 16, 16}, 10)
	net, err := BuildInference(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := net.LayerNames()
	// The paper's Fig. 10 inventory: Conv2D, Caps2D1..15, Caps3D, ClassCaps.
	if len(names) != 18 {
		t.Fatalf("layer count = %d (%v), want 18", len(names), names)
	}
	if names[0] != "Conv2D" || names[len(names)-1] != "ClassCaps" {
		t.Fatalf("layer names = %v", names)
	}
	found3D := false
	caps2d := 0
	for _, n := range names {
		if n == "Caps3D" {
			found3D = true
		}
		if len(n) > 6 && n[:6] == "Caps2D" {
			caps2d++
		}
	}
	if !found3D || caps2d != 15 {
		t.Fatalf("inventory: caps2d=%d caps3d=%v (%v)", caps2d, found3D, names)
	}
}

func TestDeepCapsForwardShape(t *testing.T) {
	spec := DeepCaps([]int{3, 16, 16}, 10)
	net, err := BuildInference(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 16, 16).FillUniform(tensor.NewRNG(3), 0, 1)
	out := net.Forward(x, noise.None{})
	if out.Shape[0] != 2 || out.Shape[1] != 10 || out.Shape[2] != 16 {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestCapsNetGeometry(t *testing.T) {
	spec := CapsNet([]int{1, 20, 20}, 10)
	net, err := BuildInference(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	names := net.LayerNames()
	want := []string{"Conv2D", "Primary", "ClassCaps"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	x := tensor.New(1, 1, 20, 20).FillUniform(tensor.NewRNG(5), 0, 1)
	out := net.Forward(x, noise.None{})
	if out.Shape[1] != 10 || out.Shape[2] != 16 {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestTrainerMatchesInferenceAfterWeightTransfer(t *testing.T) {
	// The entire resilience methodology depends on this: weights trained
	// in internal/train must produce identical outputs when saved from
	// the trained network and loaded into a freshly built one, as the
	// weight cache does.
	for _, spec := range []Spec{
		CapsNet([]int{1, 20, 20}, 4),
		DeepCaps([]int{3, 16, 16}, 4),
	} {
		net, err := BuildInference(spec, 10)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(2, spec.InputShape[0], spec.InputShape[1], spec.InputShape[2]).
			FillUniform(tensor.NewRNG(11), 0, 1)
		// One optimizer step moves the weights off their initialization.
		m := train.NewModel(net)
		out := m.Forward(x)
		m.ZeroGrad()
		m.Backward(tensor.New(out.Shape...).FillNormal(tensor.NewRNG(12), 0, 1))
		train.NewAdam(0.01).Step(m.Params())
		trained := m.Forward(x)

		fresh, err := BuildInference(spec, 999) // different init on purpose
		if err != nil {
			t.Fatal(err)
		}
		if err := params.FromParams(net.Params()).LoadInto(fresh.Params()); err != nil {
			t.Fatalf("%s: transfer: %v", spec.Name, err)
		}
		for _, c := range []struct {
			name string
			net  *caps.Network
		}{{"trained network", net}, {"transferred network", fresh}} {
			got := c.net.Forward(x, noise.None{})
			if !trained.SameShape(got) {
				t.Fatalf("%s: %s shape %v, trainer %v", spec.Name, c.name, got.Shape, trained.Shape)
			}
			for i := range trained.Data {
				if math.Abs(trained.Data[i]-got.Data[i]) > 1e-9 {
					t.Fatalf("%s: output[%d] = %g (%s) vs %g (trainer)",
						spec.Name, i, got.Data[i], c.name, trained.Data[i])
				}
			}
		}
	}
}

func TestFullDeepCapsOpCountsShape(t *testing.T) {
	// Table I shape: multiplications and additions in the 10⁹ range and
	// within 2× of each other; div/exp/sqrt orders of magnitude rarer.
	spec := FullDeepCaps()
	net, err := BuildInference(spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	ops := net.Ops(1)
	if ops.Mul < 5e8 || ops.Mul > 5e9 {
		t.Fatalf("full DeepCaps mul count = %g, want ~10⁹", ops.Mul)
	}
	ratio := ops.Mul / ops.Add
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("mul/add ratio = %g, want ≈1 (paper: 2.15G/1.91G)", ratio)
	}
	if ops.Div > ops.Mul/50 {
		t.Fatalf("div count %g too large vs mul %g", ops.Div, ops.Mul)
	}
	if ops.Exp > ops.Div || ops.Sqrt > ops.Div {
		t.Fatalf("exp/sqrt (%g/%g) should be rarer than div (%g)", ops.Exp, ops.Sqrt, ops.Div)
	}
}

func TestGeometryErrors(t *testing.T) {
	spec := CapsNet([]int{1, 5, 5}, 10) // too small for 9×9 convs
	if _, err := BuildInference(spec, 1); err == nil {
		t.Fatal("expected geometry error for tiny input")
	}
	bad := Spec{Name: "bad", InputShape: []int{1, 20, 20}, Conv: ConvSpec{Out: 4, K: 3, Stride: 1, Pad: 1}}
	if _, err := BuildInference(bad, 1); err == nil {
		t.Fatal("expected error for spec without cells or primary caps")
	}
}

func TestParamNameParity(t *testing.T) {
	// Training updates, and the weight cache saves, the network's own
	// tensors: the trainer's parameters are exactly the network's, listed
	// in forward order with cell branches as L1, L2, L3, Skip and W before
	// B, and a network built from another seed has the same names and
	// shapes to load them into.
	for _, c := range []struct {
		spec Spec
		want []string // parameter layers in order
	}{
		{CapsNet([]int{1, 20, 20}, 10), []string{"Conv2D", "Primary", "ClassCaps"}},
		{DeepCaps([]int{3, 16, 16}, 10), deepCapsOrder()},
	} {
		net, err := BuildInference(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := BuildInference(c.spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		np, op := net.Params(), other.Params()
		var got []string
		for _, p := range train.NewModel(net).Params() {
			if np[p.Name] != p.W {
				t.Fatalf("%s: trainer parameter %s is not the network's tensor", c.spec.Name, p.Name)
			}
			if w, ok := op[p.Name]; !ok || !w.SameShape(p.W) {
				t.Fatalf("%s: parameter %s has no match of shape %v in another network", c.spec.Name, p.Name, p.W.Shape)
			}
			got = append(got, p.Name)
		}
		var want []string
		for _, l := range c.want {
			want = append(want, l+"/W")
			if l != "Caps3D" && l != "ClassCaps" {
				want = append(want, l+"/B")
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || len(np) != len(want) || len(op) != len(want) {
			t.Fatalf("%s: trainer parameters %v, want %v (networks have %d and %d)",
				c.spec.Name, got, want, len(np), len(op))
		}
	}
}

// deepCapsOrder lists DeepCaps' weighted layers in parameter order.
func deepCapsOrder() []string {
	out := []string{"Conv2D"}
	for i := 1; i <= 15; i++ {
		out = append(out, fmt.Sprintf("Caps2D%d", i))
	}
	return append(out, "Caps3D", "ClassCaps")
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	spec := CapsNet([]int{1, 20, 20}, 10)
	a, _ := BuildInference(spec, 1)
	b, _ := BuildInference(spec, 2)
	wa := a.Params()["Conv2D/W"]
	wb := b.Params()["Conv2D/W"]
	same := true
	for i := range wa.Data {
		if wa.Data[i] != wb.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}
