package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// faultAnalyzer derives the shared fixture with a fault injector and a
// severity grid sized for probabilities/fractions instead of noise
// magnitudes.
func faultAnalyzer(t *testing.T, spec noise.Spec) *Analyzer {
	t.Helper()
	a := derived(t)
	a.Opts.Noise = spec
	a.Opts.NMSweep = []float64{0.05, 0.01, 0}
	a.Opts = a.Opts.WithDefaults()
	return a
}

func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	// The worker-count invariance must hold for every injector kind, not
	// just the Gaussian model: bit flips draw per-stream, stuck-at cells
	// are stream-independent by construction.
	for _, spec := range []noise.Spec{
		{Kind: noise.KindBitFlip},
		{Kind: noise.KindStuckAt0},
		{Kind: noise.KindStuckAt1},
	} {
		a := faultAnalyzer(t, spec)
		clean := oracleAccuracy(a, nil, nil)
		filter := noise.ForGroup(noise.MACOutputs)
		base := faultAnalyzer(t, spec)
		base.Opts.Workers = 1
		want := mustSweep(t, base, filter, clean, 3)
		if want[len(want)-1].Accuracy != clean {
			t.Fatalf("%s: zero-severity point %+v != clean %g", spec, want[len(want)-1], clean)
		}
		for _, workers := range []int{2, 8} {
			b := faultAnalyzer(t, spec)
			b.Opts.Workers = workers
			samePoints(t, spec.String()+" workers", want, mustSweep(t, b, filter, clean, 3))
		}
	}
}

func TestFaultSweepCheckpointResumeByteIdentical(t *testing.T) {
	// Interrupt a fault sweep after its first window and resume it from
	// the checkpoint: the folded points must match an uninterrupted run
	// bit-for-bit for both fault families.
	for _, spec := range []noise.Spec{
		{Kind: noise.KindBitFlip, Bits: 8},
		{Kind: noise.KindStuckAt1},
	} {
		dir := t.TempDir()
		scope := ScopeForGroup(noise.MACOutputs)
		const clean, seedBase = 0.9, 13

		want := faultAnalyzer(t, spec)
		wantPts, err := want.Sweep(context.Background(), scope, clean, seedBase)
		if err != nil {
			t.Fatal(err)
		}

		a := faultAnalyzer(t, spec)
		a.windowBatches = 1 // single-batch windows: a checkpoint after every batch
		st, _ := resumeStore(t, dir, a.Opts)
		a.Checkpoint = st
		ctx, cancel := context.WithCancel(context.Background())
		a.afterWindow = func(done, total int) {
			if done == 1 {
				cancel()
			}
		}
		if _, err := a.Sweep(ctx, scope, clean, seedBase); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted sweep error = %v", spec, err)
		}

		b := faultAnalyzer(t, spec)
		b.Obs = obs.New(obs.Off, nil)
		st2, resumed := resumeStore(t, dir, b.Opts)
		if !resumed {
			t.Fatalf("%s: checkpointed store reported fresh", spec)
		}
		b.Checkpoint = st2
		gotPts, err := b.Sweep(context.Background(), scope, clean, seedBase)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, spec.String()+" resume", wantPts, gotPts)
	}
}

func TestFleetFaultSweepMatchesLocal(t *testing.T) {
	// Fault campaigns distribute like Gaussian sweeps: the full Options —
	// including the injector spec — travel in the SweepJob, so a fleet
	// fold out of order is byte-identical to the local run.
	spec := noise.Spec{Kind: noise.KindBitFlip}
	local := faultAnalyzer(t, spec)
	scope := ScopeForGroup(noise.MACOutputs)
	want, err := local.Sweep(context.Background(), scope, 0.9, 19)
	if err != nil {
		t.Fatal(err)
	}
	fl := &stubFleet{worker: derived(t), reverse: true}
	coord := faultAnalyzer(t, spec)
	coord.Fleet = fl
	got, err := coord.Sweep(context.Background(), scope, 0.9, 19)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "fleet fault sweep", want, got)
}

func TestSweepRejectsUnknownInjectorKind(t *testing.T) {
	a := derived(t)
	a.Opts.Noise = noise.Spec{Kind: "cosmic-ray"}
	_, err := a.Sweep(context.Background(), ScopeForGroup(noise.MACOutputs), 0.9, 1)
	if err == nil || !strings.Contains(err.Error(), noise.KindBitFlip) {
		t.Fatalf("sweep with bad kind: err = %v, want the valid-kind list", err)
	}
	b := derived(t)
	b.Opts.Noise = noise.Spec{Kind: "cosmic-ray"}
	if _, err := b.EvalWindow(context.Background(), ScopeForGroup(noise.MACOutputs), 1, 0, 1); err == nil {
		t.Fatal("EvalWindow accepted an unknown injector kind")
	}
}

func TestFingerprintBackCompat(t *testing.T) {
	base := Options{NMSweep: []float64{0.5, 0}, Trials: 2, Batch: 8, Threshold: 0.02, Seed: 5, Workers: 1}

	// The acceptance pin: a default (gaussian, exact-nonlinearity) option
	// set must hash the exact pre-dimension format string, so every
	// checkpoint written before the seam existed still resumes.
	o := base.WithDefaults()
	legacy := checkpoint.Fingerprint(fmt.Sprintf(
		"opts-v1|nm=%v|na=%g|trials=%d|batch=%d|thr=%g|seed=%d|maxeval=%d",
		o.NMSweep, o.NA, o.Trials, o.Batch, o.Threshold, o.Seed, o.MaxEval))
	if got := base.Fingerprint(); got != legacy {
		t.Fatalf("default fingerprint %q != legacy format %q", got, legacy)
	}

	// Spelling the defaults out loud changes nothing.
	explicit := base
	explicit.Noise = noise.Spec{Kind: noise.KindGaussian}
	explicit.Softmax, explicit.Squash = "exact", "exact"
	if explicit.Fingerprint() != legacy {
		t.Fatal("explicit gaussian/exact options changed the fingerprint")
	}

	// Every new dimension separates resume state.
	seen := map[string]string{"default": legacy}
	for label, vary := range map[string]func(*Options){
		"bit-flip":   func(o *Options) { o.Noise = noise.Spec{Kind: noise.KindBitFlip} },
		"bit-flip/4": func(o *Options) { o.Noise = noise.Spec{Kind: noise.KindBitFlip, Bits: 4} },
		"stuck-at-0": func(o *Options) { o.Noise = noise.Spec{Kind: noise.KindStuckAt0} },
		"base2":      func(o *Options) { o.Softmax = "base2" },
		"sqnorm":     func(o *Options) { o.Squash = "sqnorm" },
	} {
		v := base
		vary(&v)
		fp := v.Fingerprint()
		for prev, pfp := range seen {
			if fp == pfp {
				t.Fatalf("%s and %s share fingerprint %q", label, prev, fp)
			}
		}
		seen[label] = fp
	}
}

func TestExplicitGaussianSweepMatchesDefault(t *testing.T) {
	// The byte-identity acceptance criterion at the engine level: naming
	// the gaussian kind explicitly runs the identical injector stream as
	// the pre-refactor zero-value path.
	a := derived(t)
	clean := oracleAccuracy(a, nil, nil)
	want := mustSweep(t, derived(t), noise.ForGroup(noise.MACOutputs), clean, 7)
	b := derived(t)
	b.Opts.Noise = noise.Spec{Kind: noise.KindGaussian}
	samePoints(t, "explicit gaussian vs default", want, mustSweep(t, b, noise.ForGroup(noise.MACOutputs), clean, 7))
}

func TestApproxNonlinearitySweepDiffersButZeroPointMatchesItsClean(t *testing.T) {
	// An approximate softmax changes the sweep (the operators really are
	// swapped) but stays internally consistent: the zero-severity point
	// equals the clean accuracy measured under the same operators.
	a := derived(t)
	a.Opts.Softmax = "base2"
	a.Opts = a.Opts.WithDefaults()
	be, err := a.execBackend(caps.Float{})
	if err != nil {
		t.Fatal(err)
	}
	cleanApprox := oracleAccuracy(a, be, nil)
	pts := mustSweep(t, a, noise.ForGroup(noise.MACOutputs), cleanApprox, 11)
	if pts[len(pts)-1].Accuracy != cleanApprox {
		t.Fatalf("zero point %+v != approx clean %g", pts[len(pts)-1], cleanApprox)
	}
	if bad := a.Opts.Fingerprint(); bad == derived(t).Opts.Fingerprint() {
		t.Fatal("approximate-softmax run shares resume state with the exact run")
	}
}
