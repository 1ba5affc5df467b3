package train

import (
	"math"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// deepStack builds a deliberately deep caps stack that collapses without
// LSUV.
func deepStack() *Model {
	layers := []caps.Layer{conv2D("Conv2D", 1, 8, 3, 1, 1, true, 1)}
	in := 8
	for i := 1; i <= 6; i++ {
		layers = append(layers, convCaps2D(layerName(i), in, 2, 4, 3, 1, 1, uint64(i+1)))
		in = 8
	}
	return model(layers...)
}

func layerName(i int) string {
	return "Caps2D" + string(rune('0'+i))
}

// macStd reports the std of a layer's MAC outputs site (its pre-activation)
// in the last Forward.
func macStd(m *Model, layer string) float64 {
	return m.site(layer, noise.MACOutputs).Std()
}

func TestLSUVRestoresSignalPropagation(t *testing.T) {
	m := deepStack()
	x := tensor.New(8, 1, 10, 10).FillUniform(tensor.NewRNG(9), 0, 1)

	before := m.Forward(x).Std()
	LSUVInit(m, x, 0.5)
	after := m.Forward(x).Std()
	if after <= before {
		t.Fatalf("LSUV did not amplify collapsed activations: %g -> %g", before, after)
	}
	// The final layer's pre-activation std must sit near the target.
	if std := macStd(m, layerName(6)); math.Abs(std-0.5) > 0.05 {
		t.Fatalf("final pre-activation std = %g, want ≈0.5", std)
	}
}

func TestLSUVHandlesCells(t *testing.T) {
	cell := &caps.CapsCell{
		CellName: "Cell1",
		L1:       convCaps2D("Caps2D1", 8, 2, 4, 3, 2, 1, 11),
		L2:       convCaps2D("Caps2D2", 8, 2, 4, 3, 1, 1, 12),
		L3:       convCaps2D("Caps2D3", 8, 2, 4, 3, 1, 1, 13),
		Skip:     convCaps2D("Caps2D4", 8, 2, 4, 3, 1, 1, 14),
	}
	m := model(conv2D("Conv2D", 1, 8, 3, 1, 1, true, 10), cell)
	x := tensor.New(4, 1, 8, 8).FillUniform(tensor.NewRNG(15), 0, 1)
	LSUVInit(m, x, 0.5)
	// Verify every inner layer was calibrated to a sane band by
	// re-running the stack and probing pre-activation stds.
	m.Forward(x)
	for _, l := range []caps.Layer{cell.L1, cell.L2, cell.L3, cell.Skip} {
		std := macStd(m, l.Name())
		if std < 0.2 || std > 1.0 {
			t.Fatalf("%s pre-activation std = %g after LSUV", l.Name(), std)
		}
	}
}

func TestCapsCellForwardBackwardShapes(t *testing.T) {
	cell := &caps.CapsCell{
		CellName: "Cell1",
		L1:       convCaps2D("Caps2D1", 4, 2, 4, 3, 2, 1, 21),
		L2:       convCaps2D("Caps2D2", 8, 2, 4, 3, 1, 1, 22),
		L3:       convCaps2D("Caps2D3", 8, 2, 4, 3, 1, 1, 23),
		Skip:     convCaps2D("Caps2D4", 8, 2, 4, 3, 1, 1, 24),
	}
	m := model(cell)
	x := tensor.New(2, 4, 8, 8).FillNormal(tensor.NewRNG(25), 0, 0.5)
	y := m.Forward(x)
	if y.Shape[1] != 8 || y.Shape[2] != 4 {
		t.Fatalf("cell output shape = %v", y.Shape)
	}
	gy := tensor.New(y.Shape...).FillNormal(tensor.NewRNG(26), 0, 1)
	gx := m.Backward(gy)
	if !gx.SameShape(x) {
		t.Fatalf("cell gx shape = %v", gx.Shape)
	}
	if len(m.Params()) != 8 {
		t.Fatalf("cell params = %d", len(m.Params()))
	}
}

func TestCapsCellGradientNumeric(t *testing.T) {
	m := model(&caps.CapsCell{
		CellName: "C",
		L1:       convCaps2D("a", 2, 1, 4, 3, 1, 1, 31),
		L2:       convCaps2D("b", 4, 1, 4, 3, 1, 1, 32),
		L3:       convCaps2D("c", 4, 1, 4, 3, 1, 1, 33),
		Skip:     convCaps2D("d", 4, 1, 4, 3, 1, 1, 34),
	})
	x := tensor.New(1, 2, 4, 4).FillNormal(tensor.NewRNG(35), 0, 1)
	gradCheck(t, m, x, 36, "a/W")
}

func TestParamMapAndNames(t *testing.T) {
	// The parameters are the layers' own tensors, named <layer>/W and
	// <layer>/B as in caps.Network.Params, in layer order with W before B,
	// each with a gradient of its own shape.
	conv := conv2D("Conv2D", 1, 2, 3, 1, 1, false, 51)
	c3d := convCaps3D("Caps3D", 2, 1, 2, 2, 3, 1, 1, 2, 52)
	cls := classCaps("ClassCaps", 4, 2, 2, 4, 2, 53)
	m := model(conv, c3d, cls)
	want := []struct {
		name string
		w    *tensor.Tensor
	}{{"Conv2D/W", conv.W}, {"Conv2D/B", conv.B}, {"Caps3D/W", c3d.W}, {"ClassCaps/W", cls.W}}
	ps := m.Params()
	if len(ps) != len(want) {
		t.Fatalf("%d parameters, want %d", len(ps), len(want))
	}
	np := m.Net.Params()
	for i, p := range ps {
		if p.Name != want[i].name || p.W != want[i].w || np[p.Name] != p.W {
			t.Fatalf("parameter %d is %s, want the layer tensor %s", i, p.Name, want[i].name)
		}
		if !p.G.SameShape(p.W) {
			t.Fatalf("%s: gradient shape %v, weight %v", p.Name, p.G.Shape, p.W.Shape)
		}
	}
	if m.Net.Layers[1].Name() != "Caps3D" || m.Net.Layers[2].Name() != "ClassCaps" {
		t.Fatal("layer names wrong")
	}
}
