package caps

import (
	"math"
	"testing"

	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// halvedSoftmax is a visibly-wrong softmax stand-in for seam tests: it
// returns the exact softmax scaled by 1/2, so affected outputs are easy
// to detect without depending on internal/approx (which would cycle).
func halvedSoftmax(t *tensor.Tensor, axis int) *tensor.Tensor {
	out := tensor.Softmax(t, axis)
	for i := range out.Data {
		out.Data[i] *= 0.5
	}
	return out
}

func halvedSquash(t *tensor.Tensor, axis int) *tensor.Tensor {
	out := tensor.Squash(t, axis)
	for i := range out.Data {
		out.Data[i] *= 0.5
	}
	return out
}

// nlNet is a CapsNet-shaped fixture: conv → primary caps → routed caps.
func nlNet() *Network {
	return &Network{Layers: []Layer{
		newConv("Conv2D", 1, 4, 3, 1, 1, true, 1),
		newCaps2D("Primary", 4, 2, 4, 3, 2, 1, 2),
		// 12×12 input → Primary (stride 2) leaves 6×6 positions of 2
		// capsules: 72 input capsules of dim 4 at the routing layer.
		newClassCaps("ClassCaps", 2*6*6, 4, 3, 4, 3, 3),
	}}
}

func TestWithNonlinearityExactIsIdentity(t *testing.T) {
	// The acceptance invariant: the exact pair is not just bit-identical
	// to the undecorated backend — it IS the undecorated backend, so the
	// default path cannot drift from the pre-seam code.
	be := Float{}
	if got := WithNonlinearity(be, Nonlinearity{}); got != Backend(be) {
		t.Fatalf("exact decoration returned %T, want the backend unchanged", got)
	}
	if !(Nonlinearity{}).Exact() || (Nonlinearity{}).Tag() != "" {
		t.Fatal("zero Nonlinearity is not the exact pair")
	}
}

func TestNonlinearityTagAndName(t *testing.T) {
	nl := Nonlinearity{
		SoftmaxName: "base2", SoftmaxFn: halvedSoftmax,
		SquashName: "sqnorm", SquashFn: halvedSquash,
	}
	if nl.Tag() != "sm=base2,sq=sqnorm" {
		t.Fatalf("Tag = %q", nl.Tag())
	}
	be := WithNonlinearity(Float{}, nl)
	if be.Name() != "float+sm=base2,sq=sqnorm" {
		t.Fatalf("Name = %q", be.Name())
	}
	// The exact baseline is the inner backend's: the prefix cache may be
	// shared.
	if be.ExactBaseline() != (Float{}).ExactBaseline() {
		t.Fatalf("ExactBaseline = %q, want %q", be.ExactBaseline().Name(), (Float{}).ExactBaseline().Name())
	}
}

func TestNonlinearityFrontierPositions(t *testing.T) {
	n := nlNet()
	exact := n.NonlinearityFrontier(Nonlinearity{})
	if exact != len(n.Layers) {
		t.Fatalf("exact frontier = %d, want %d", exact, len(n.Layers))
	}
	// A swapped squash reaches the first capsule layer (Primary, index 1);
	// a swapped softmax only the routing layer (ClassCaps, index 2).
	sq := n.NonlinearityFrontier(Nonlinearity{SquashName: "x", SquashFn: halvedSquash})
	if sq != 1 {
		t.Fatalf("squash frontier = %d, want 1", sq)
	}
	sm := n.NonlinearityFrontier(Nonlinearity{SoftmaxName: "x", SoftmaxFn: halvedSoftmax})
	if sm != 2 {
		t.Fatalf("softmax frontier = %d, want 2", sm)
	}
	// BackendFrontier folds the nonlinearity frontier into the sweep
	// engine's clamp.
	be := WithNonlinearity(Float{}, Nonlinearity{SoftmaxName: "x", SoftmaxFn: halvedSoftmax})
	if got := n.BackendFrontier(be); got != 2 {
		t.Fatalf("BackendFrontier = %d, want 2", got)
	}
	if got := n.BackendFrontier(Float{}); got != len(n.Layers) {
		t.Fatalf("exact BackendFrontier = %d, want %d", got, len(n.Layers))
	}
}

func TestNonlinearityAffectsOnlyLayersPastFrontier(t *testing.T) {
	// Activations before the frontier are bit-identical with and without
	// the swapped operators — the invariant the prefix cache rests on.
	n := nlNet()
	x := rt(11, 3, 1, 12, 12)
	nl := Nonlinearity{SoftmaxName: "x", SoftmaxFn: halvedSoftmax}
	be := WithNonlinearity(Float{}, nl)
	frontier := n.NonlinearityFrontier(nl)

	exactPrefix := n.ForwardToExec(frontier, x, noise.None{}, Float{})
	nlPrefix := n.ForwardToExec(frontier, x, noise.None{}, be)
	for i := range exactPrefix.Data {
		if exactPrefix.Data[i] != nlPrefix.Data[i] {
			t.Fatalf("prefix activation %d differs under swapped softmax", i)
		}
	}

	exactOut := n.Forward(x, noise.None{})
	nlOut := n.ForwardExec(x, noise.None{}, be)
	changed := false
	for i := range exactOut.Data {
		if exactOut.Data[i] != nlOut.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("swapped softmax did not change routed outputs")
	}
}

func TestSwappedSquashStillBoundsNorms(t *testing.T) {
	// A squash substitute flows through every capsule layer; the routing
	// outputs must still be finite (a numerically exploding variant would
	// corrupt every sweep silently).
	nl := Nonlinearity{SquashName: "x", SquashFn: func(t *tensor.Tensor, axis int) *tensor.Tensor {
		return tensor.Squash(t, axis)
	}}
	n := nlNet()
	x := rt(13, 2, 1, 12, 12)
	be := WithNonlinearity(Float{}, nl)
	out := n.ForwardExec(x, noise.None{}, be)
	want := n.Forward(x, noise.None{})
	for i := range out.Data {
		if math.IsNaN(out.Data[i]) || math.IsInf(out.Data[i], 0) {
			t.Fatalf("non-finite output at %d", i)
		}
		// This variant is the exact kernel under the seam: outputs must be
		// bit-identical, proving the seam adds no numeric detour.
		if out.Data[i] != want.Data[i] {
			t.Fatalf("seam-threaded exact squash differs at %d", i)
		}
	}
}
