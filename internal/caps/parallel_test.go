package caps

import (
	"testing"

	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// parallelTestNet builds a small network with a conv stem, a capsule cell
// and both routing layers, so every layer kind appears in the split- and
// parallel-forward tests.
func parallelTestNet() *Network {
	return &Network{
		NetName:    "ptest",
		InputShape: []int{1, 8, 8},
		Layers: []Layer{
			newConv("Conv2D", 1, 4, 3, 1, 1, true, 10),
			newCaps2D("Caps2D1", 4, 4, 4, 3, 2, 1, 11),
			newCaps3D("Caps3D", 4, 4, 3, 4, 3, 2, 1, 2, 12),
			newClassCaps("ClassCaps", 3*2*2, 4, 3, 6, 3, 13),
		},
	}
}

// forwardFrom runs the suffix layers [k, len(Layers)) the way
// ClassifyFromExec does, returning the activations instead of classes.
func forwardFrom(n *Network, k int, x *tensor.Tensor, inj noise.Injector) *tensor.Tensor {
	return n.forwardRange(k, len(n.Layers), x, inj, nil, Float{}, forwardKind(k))
}

func TestForwardFromAdjoint(t *testing.T) {
	// Splitting a clean forward pass at ANY boundary k must be
	// bit-identical to the unsplit pass.
	net := parallelTestNet()
	x := rt(20, 5, 1, 8, 8)
	want := net.Forward(x, noise.None{})
	for k := 0; k <= len(net.Layers); k++ {
		prefix := net.ForwardToExec(k, x, noise.None{}, Float{})
		got := forwardFrom(net, k, prefix, noise.None{})
		if !got.SameShape(want) {
			t.Fatalf("k=%d: shape %v vs %v", k, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("k=%d: element %d = %g, want %g", k, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestForwardFromMatchesFullForwardUnderInjection(t *testing.T) {
	// For an injector active only at sites of layer k and beyond, replaying
	// the clean prefix up to the frontier must reproduce the noisy pass
	// bit-for-bit (same RNG consumption on the suffix).
	net := parallelTestNet()
	x := rt(21, 3, 1, 8, 8)
	for _, layer := range []string{"Caps3D", "ClassCaps"} {
		filter := noise.ForLayerGroup(layer, noise.MACOutputs)
		k := net.InjectionFrontier(filter)
		if k == 0 || k >= len(net.Layers) {
			t.Fatalf("frontier for %s = %d", layer, k)
		}
		want := net.Forward(x, noise.NewGaussian(0.1, 0, filter, 99))
		prefix := net.ForwardToExec(k, x, noise.None{}, Float{})
		got := forwardFrom(net, k, prefix, noise.NewGaussian(0.1, 0, filter, 99))
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("layer %s: suffix replay diverged at %d", layer, i)
			}
		}
	}
}

func TestInjectionFrontier(t *testing.T) {
	net := parallelTestNet()
	cases := []struct {
		filter noise.Filter
		want   int
	}{
		{noise.All(), 0},
		{noise.ForGroup(noise.MACOutputs), 0},
		{noise.ForGroup(noise.Softmax), 2}, // first routing layer
		{noise.ForLayerGroup("ClassCaps", noise.LogitsUpdate), 3},
		{noise.ForSites(), len(net.Layers)}, // matches nothing
	}
	for i, c := range cases {
		if got := net.InjectionFrontier(c.filter); got != c.want {
			t.Fatalf("case %d: frontier = %d, want %d", i, got, c.want)
		}
	}
}

func TestScratchForwardMatchesPlainForward(t *testing.T) {
	// Repeated forwards through the pooled scratch arena must be
	// bit-identical to each other (buffer recycling must never leak state).
	net := parallelTestNet()
	x := rt(24, 4, 1, 8, 8)
	want := net.Forward(x, noise.None{})
	for rep := 0; rep < 3; rep++ {
		got := net.Forward(x, noise.None{})
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("rep %d: forward not reproducible at %d", rep, i)
			}
		}
	}
}
