package axe

import (
	"math"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

func TestQuantCapsVotesMatchesFloatWithExactMultiplier(t *testing.T) {
	u := randT(20, 2, 6, 4)
	w := tensor.New(6, 3, 8, 4).FillGlorot(tensor.NewRNG(21), 4, 8)
	got := quantCapsVotes(approx.CompileLUT(approx.Exact{}), u, w, 8, nil, nil)

	// Float reference via the inference layer's own vote computation:
	// run ClassCaps with identity routing (1 iteration) is not directly
	// the votes, so compute the reference directly.
	want := tensor.New(2, 6, 3, 8, 1)
	for b := 0; b < 2; b++ {
		for i := 0; i < 6; i++ {
			for j := 0; j < 3; j++ {
				for d := 0; d < 8; d++ {
					s := 0.0
					for e := 0; e < 4; e++ {
						s += w.At(i, j, d, e) * u.At(b, i, e)
					}
					want.Set(s, b, i, j, d, 0)
				}
			}
		}
	}
	r := want.Range()
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 0.05*r {
			t.Fatalf("votes[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestBackendApproximatesClassCapsLayer(t *testing.T) {
	net := buildTinyNet(30)
	x := randT(31, 5, 1, 6, 6)
	clean := net.ClassifyFromExec(0, x, noise.None{}, nil, caps.Float{})

	got := net.ClassifyFromExec(0, x, noise.None{}, nil, QuantExact{Bits: 8})
	agree := 0
	for i := range clean {
		if clean[i] == got[i] {
			agree++
		}
	}
	if agree < len(clean)-1 {
		t.Fatalf("quant-exact ClassCaps backend disagrees: %v vs %v", got, clean)
	}

	// A crude multiplier on the routing votes must change the scores.
	crude, err := NewQuantApprox(8, map[string]approx.Multiplier{"ClassCaps": approx.OperandTrunc{ABits: 6, BBits: 6}})
	if err != nil {
		t.Fatal(err)
	}
	ref := net.Forward(x, noise.None{})
	out := net.ForwardExec(x, noise.None{}, crude)
	diff := 0.0
	for i := range ref.Data {
		diff += math.Abs(ref.Data[i] - out.Data[i])
	}
	if diff == 0 {
		t.Fatal("crude routing-vote approximation had no effect")
	}
}

func TestBackendApproximatesConvCaps3D(t *testing.T) {
	c3d := &caps.ConvCaps3D{
		LayerName: "Caps3D",
		InCaps:    2, InDim: 4, OutCaps: 2, OutDim: 4,
		W:      tensor.New(2, 8, 4, 3, 3).FillGlorot(tensor.NewRNG(40), 36, 72),
		Stride: 1, Pad: 1, RoutingIterations: 3,
	}
	net := &caps.Network{
		NetName:    "c3d",
		InputShape: []int{8, 4, 4},
		Layers: []caps.Layer{
			c3d,
			&caps.ClassCaps{
				LayerName: "ClassCaps",
				InCaps:    2 * 4 * 4, InDim: 4, OutCaps: 3, OutDim: 8,
				W:                 tensor.New(2*4*4, 3, 8, 4).FillGlorot(tensor.NewRNG(41), 4, 8),
				RoutingIterations: 3,
			},
		},
	}
	x := randT(42, 3, 8, 4, 4)
	ref := net.Forward(x, noise.None{})

	out := net.ForwardExec(x, noise.None{}, QuantExact{Bits: 8})
	if !ref.SameShape(out) {
		t.Fatalf("shapes %v vs %v", ref.Shape, out.Shape)
	}
	// 8-bit quantization of votes: outputs must stay close.
	r := ref.Range()
	for i := range ref.Data {
		if math.Abs(out.Data[i]-ref.Data[i]) > 0.15*r {
			t.Fatalf("caps3d backend too far at %d: %g vs %g", i, out.Data[i], ref.Data[i])
		}
	}
}
