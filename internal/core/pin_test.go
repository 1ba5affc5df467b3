package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/noise"
)

// Recorded digests of the pinned runs below. The sweep digests hold for
// both window layouts: probe stats merge in one fixed job order over the
// whole sweep, so splitting a fold into windows changes no byte.
const (
	pinSoftmaxSweep = "a36d48124b46990ca3ee188cd6530b84c5fb9ace1b1ec50ecd6b6b1952856145"
	pinMACSweep     = "d86efd3bf091ae83bbcc821669670faaad4d459aa444cb4ee871bcbb709bdbab"
	pinFleetSweep   = "ce0ac8e58f6107895f855a43bac9fecd77d5f3b9583e9f87db5d7a1daec84c65"
	pinQuantExact   = "2b83f6f51c5a06193a75cab9cc4b5c84e43af9f3db75498e21358a7a5760bf58"
	pinDesign       = "d1bc2774ee5ba6b0ec8f7bbc439b1fc2fb5ecccb012cc640e92e09c53b8e5829"
)

// TestEngineDigestsPinned hashes every artifact the window/fold engine
// writes — the points or accuracy, the probe set's JSON and every
// checkpoint file — for sweeps, a fleet sweep and backend evaluations
// with probes and checkpointing on, and compares them with recorded
// digests. The other byte-identity tests run both sides on the same
// code, so a change that moves both sides passes them; this one does
// not.
func TestEngineDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which rounds the
		// float path differently from the recording machine.
		t.Skip("digests are recorded on amd64")
	}
	sweep := func(g noise.Group) func(*Analyzer) (any, error) {
		return func(a *Analyzer) (any, error) { return a.Sweep(context.Background(), noise.ForGroup(g), 0.9, 21) }
	}
	eval := func(be func(*Analyzer) caps.Backend) func(*Analyzer) (any, error) {
		return func(a *Analyzer) (any, error) { return a.EvalBackend(context.Background(), be(a), "pin") }
	}
	quant := func(*Analyzer) caps.Backend { return axe.QuantExact{Bits: 8} }
	design := func(a *Analyzer) caps.Backend { return designBackend(t, a) }
	cases := []struct {
		name string
		wb   int // windowBatches: 0 is one window, 1 one batch per window
		run  func(*Analyzer) (any, error)
		want string
	}{
		{"sweep/softmax/one-window", 0, sweep(noise.Softmax), pinSoftmaxSweep},
		{"sweep/softmax/windows", 1, sweep(noise.Softmax), pinSoftmaxSweep},
		{"sweep/mac/one-window", 0, sweep(noise.MACOutputs), pinMACSweep},
		{"sweep/mac/windows", 1, sweep(noise.MACOutputs), pinMACSweep},
		{"fleet/softmax/reverse", 0, func(a *Analyzer) (any, error) {
			a.Fleet = &stubFleet{worker: derived(t), reverse: true}
			return a.sweepScoped(context.Background(), ScopeForGroup(noise.Softmax), 0.9, 21)
		}, pinFleetSweep},
		{"eval/quant-exact/one-window", 0, eval(quant), pinQuantExact},
		{"eval/quant-exact/windows", 1, eval(quant), pinQuantExact},
		{"eval/design/one-window", 0, eval(design), pinDesign},
		{"eval/design/windows", 1, eval(design), pinDesign},
	}
	for _, c := range cases {
		a := derived(t)
		a.windowBatches = c.wb
		dir := t.TempDir()
		a.Checkpoint, _ = resumeStore(t, dir, a.Opts)
		a.Probes = NewProbeSet()
		res, err := c.run(a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", res)
		if err := a.Probes.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		for _, rel := range listFiles(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", rel, len(data))
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
