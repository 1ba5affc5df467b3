package caps_test

import (
	"testing"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/noise"
)

func TestNonlinearitySurvivesProbeWrapping(t *testing.T) {
	// ProbeBackend embeds the backend it wraps, so every capability the
	// probe does not change is the wrapped backend's — above all the
	// nonlinearity, or probing would silently revert an
	// approximate-nonlinearity run to exact operators.
	nl := caps.Nonlinearity{SoftmaxName: "x", SoftmaxFn: caps.HalvedSoftmax}
	qa, err := axe.NewQuantApprox(8, map[string]approx.Multiplier{
		"Primary": approx.OperandTrunc{ABits: 4, BBits: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := caps.NLNet()
	x := caps.RandT(12, 2, 1, 12, 12)
	for _, inner := range []caps.Backend{caps.Float{}, qa} {
		be := caps.WithNonlinearity(inner, nl)
		probed := caps.NewProbeBackend(be, caps.NewProbeRecorder())
		if probed.Name() != be.Name() {
			t.Fatalf("probe-wrapped name = %q, want %q", probed.Name(), be.Name())
		}
		if got, want := probed.ExactBaseline().Name(), be.ExactBaseline().Name(); got != want {
			t.Fatalf("%s: probe-wrapped baseline = %q, want %q", be.Name(), got, want)
		}
		if got, want := n.BackendFrontier(probed), n.BackendFrontier(be); got != want {
			t.Fatalf("%s: probe-wrapped frontier = %d, want %d", be.Name(), got, want)
		}
		if got := probed.Nonlinearity(); got.SoftmaxName != "x" || got.SoftmaxFn == nil {
			t.Fatalf("%s: probe-wrapped nonlinearity = %+v", be.Name(), got)
		}
		want := n.ForwardExec(x, noise.None{}, be)
		got := n.ForwardExec(x, noise.None{}, probed)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: probed forward differs from unprobed at %d", be.Name(), i)
			}
		}
	}
}
