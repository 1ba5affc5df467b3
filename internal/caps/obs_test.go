package caps

import (
	"testing"

	"redcane/internal/noise"
	"redcane/internal/obs"
)

func TestForwardTimingNeverAltersResults(t *testing.T) {
	// Per-layer timing must be invisible numerically: the same forward
	// pass with and without an Obs attached is bit-identical.
	bare := parallelTestNet()
	x := rt(30, 4, 1, 8, 8)
	want := bare.Forward(x, noise.NewGaussian(0.1, 0, noise.All(), 7))

	timed := parallelTestNet()
	timed.Obs = obs.New(obs.Off, nil)
	got := timed.Forward(x, noise.NewGaussian(0.1, 0, noise.All(), 7))
	if !got.SameShape(want) {
		t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestForwardTimersSplitByPassKind(t *testing.T) {
	net := parallelTestNet()
	o := obs.New(obs.Off, nil)
	net.Obs = o
	x := rt(31, 4, 1, 8, 8)

	net.Forward(x, noise.None{})
	k := 2
	prefix := net.ForwardToExec(k, x, noise.None{}, Float{})
	forwardFrom(net, k, prefix, noise.None{})

	snap := o.Metrics().Snapshot()
	// Full pass: every layer once. Prefix: layers [0, k). Suffix: [k, n).
	for i, l := range net.Layers {
		if c := snap.Timers["caps.forward.full."+l.Name()].Count; c != 1 {
			t.Errorf("full timer for %s count = %d, want 1", l.Name(), c)
		}
		kind := "prefix"
		if i >= k {
			kind = "suffix"
		}
		if c := snap.Timers["caps.forward."+kind+"."+l.Name()].Count; c != 1 {
			t.Errorf("%s timer for %s count = %d, want 1", kind, l.Name(), c)
		}
	}
	// A replay from boundary 0 is a full pass, not a suffix replay.
	forwardFrom(net, 0, x, noise.None{})
	snap = o.Metrics().Snapshot()
	if c := snap.Timers["caps.forward.full."+net.Layers[0].Name()].Count; c != 2 {
		t.Errorf("boundary-0 replay not counted as full: count = %d, want 2", c)
	}
}
