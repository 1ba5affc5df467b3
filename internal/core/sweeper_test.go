package core

import (
	"context"
	"reflect"
	"testing"

	"redcane/internal/noise"
)

// sweepFilter folds the float sweep of an arbitrary site filter on this
// process's worker pool: Sweep's local path for filters no SweepScope
// names, checkpointed and probe-labelled "sweep-<seedBase>".
func sweepFilter(ctx context.Context, a *Analyzer, filter noise.Filter, clean float64, seedBase uint64) ([]SweepPoint, error) {
	p, err := a.sweepPlan(filter, seedBase)
	if err != nil {
		return nil, err
	}
	correct, err := a.fold(ctx, p, a.runLocal)
	if err != nil {
		return nil, err
	}
	return assemblePoints(a.Opts, correct, clean, p.n), nil
}

// mustSweep runs sweepFilter with a background context, failing the test
// on error — the ergonomic form for the many tests that never cancel.
func mustSweep(t *testing.T, a *Analyzer, filter noise.Filter, clean float64, seedBase uint64) []SweepPoint {
	t.Helper()
	pts, err := sweepFilter(context.Background(), a, filter, clean, seedBase)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return pts
}

// derived returns a copy of the shared analyzer with its own cold prefix
// cache and a small batch size (the fixture's eval set is ~18 samples, so
// batch 5 yields several batches to schedule and cache), so tests can
// vary Options without touching the shared fixture.
func derived(t testing.TB) *Analyzer {
	t.Helper()
	b := *sharedAnalyzer(t)
	b.pcache = nil
	b.Opts = b.Opts.WithDefaults()
	b.Opts.Batch = 5
	return &b
}

// batchCount is a's evaluation batch count under its options, derived
// the way a sweep's descriptor derives it.
func batchCount(a *Analyzer) int {
	_, job, err := a.sweepJob(ScopeForGroup(noise.MACOutputs), 0)
	if err != nil {
		panic(err)
	}
	return job.NB
}

func samePoints(t *testing.T, label string, a, b []SweepPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: point %d = %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	// The tentpole determinism requirement: sweep results must be
	// bit-identical for any worker count, because every (point, trial,
	// batch) job draws from its own counter-seeded RNG stream.
	a := derived(t)
	clean := oracleAccuracy(a, nil, nil)
	for _, filter := range []noise.Filter{
		noise.ForGroup(noise.MACOutputs), // frontier 0: no prefix to cache
		noise.ForGroup(noise.Softmax),    // late frontier: cached prefixes
	} {
		base := derived(t)
		base.Opts.Workers = 1
		want := mustSweep(t, base, filter, clean, 3)
		for _, workers := range []int{2, 8} {
			b := derived(t)
			b.Opts.Workers = workers
			samePoints(t, "workers", want, mustSweep(t, b, filter, clean, 3))
		}
	}
}

func TestSweepWindowedMatchesCached(t *testing.T) {
	// Single-batch windows re-derive the prefix per window and retain no
	// whole-set cache; results must still be bit-identical to the
	// one-window run, which retains it.
	a := derived(t)
	clean := oracleAccuracy(a, nil, nil)
	filter := noise.ForGroup(noise.Softmax)

	cached := derived(t)
	want := mustSweep(t, cached, filter, clean, 4)
	if cached.pcache == nil {
		t.Fatal("one-window sweep did not retain the whole-set prefix cache")
	}

	windowed := derived(t)
	windowed.windowBatches = 1
	if nb := batchCount(windowed); nb < 2 {
		t.Fatalf("fixture too small to exercise windowing: %d batches", nb)
	}
	samePoints(t, "windowed vs cached", want, mustSweep(t, windowed, filter, clean, 4))
	if windowed.pcache != nil {
		t.Fatal("windowed run must not retain a partial prefix cache")
	}
}

func TestLocalFoldIsOneWindow(t *testing.T) {
	// With default options a local fold evaluates all of its batches as
	// one window: a group sweep, a layer sweep and a backend evaluation
	// each fold (and checkpoint) exactly once, after the last batch.
	for name, run := range map[string]func(*Analyzer) error{
		"group sweep": func(a *Analyzer) error {
			_, err := a.Sweep(context.Background(), ScopeForGroup(noise.Softmax), 0.9, 3)
			return err
		},
		"layer sweep": func(a *Analyzer) error {
			_, err := a.Sweep(context.Background(), ScopeForLayer("Conv2D", noise.MACOutputs), 0.9, 3)
			return err
		},
		"backend eval": func(a *Analyzer) error {
			_, err := a.EvalBackend(context.Background(), designBackend(t, a), "one-window")
			return err
		},
	} {
		a := derived(t)
		nb := batchCount(a)
		if nb < 2 {
			t.Fatalf("fixture yields %d batches; need >= 2", nb)
		}
		var folds [][2]int
		a.afterWindow = func(done, total int) { folds = append(folds, [2]int{done, total}) }
		if err := run(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(folds) != 1 || folds[0] != [2]int{nb, nb} {
			t.Fatalf("%s: folded windows %v, want one ending at batch %d of %d", name, folds, nb, nb)
		}
	}
}

func TestSweepPrefixCacheReuse(t *testing.T) {
	// Back-to-back sweeps sharing a frontier (softmax and logits update
	// both front at the routing layer) must reuse the retained prefixes
	// and still reproduce a cold-cache sweep bit-for-bit.
	a := derived(t)
	clean := oracleAccuracy(a, nil, nil)

	softmax := mustSweep(t, a, noise.ForGroup(noise.Softmax), clean, 5)
	if a.pcache == nil || a.pcache.frontier == 0 {
		t.Fatalf("no prefix cache after softmax sweep: %+v", a.pcache)
	}
	first := a.pcache
	logits := mustSweep(t, a, noise.ForGroup(noise.LogitsUpdate), clean, 6)
	if a.pcache != first {
		t.Fatal("logits-update sweep rebuilt the cache despite equal frontier")
	}

	cold := derived(t)
	samePoints(t, "warm vs cold (softmax)", softmax, mustSweep(t, cold, noise.ForGroup(noise.Softmax), clean, 5))
	cold2 := derived(t)
	samePoints(t, "warm vs cold (logits)", logits, mustSweep(t, cold2, noise.ForGroup(noise.LogitsUpdate), clean, 6))

	// A frontier-0 sweep must bypass (and preserve) the cache.
	mustSweep(t, a, noise.ForGroup(noise.MACOutputs), clean, 7)
	if a.pcache != first {
		t.Fatal("frontier-0 sweep disturbed the prefix cache")
	}
}

func TestOptionsWorkerDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Workers < 1 {
		t.Fatalf("Workers default = %d", o.Workers)
	}
	if kept := (Options{Workers: 5}).WithDefaults(); kept.Workers != 5 {
		t.Fatalf("explicit values overridden: %+v", kept)
	}
}

func TestZeroValueOptionsActAsDefaults(t *testing.T) {
	// An Analyzer built with zero-value Options (Batch 0, no grid) must
	// run exactly as if its Options had gone through WithDefaults.
	ctx := context.Background()
	a := derived(t)
	zero := &Analyzer{Net: a.Net, Data: a.Data}
	defaulted := &Analyzer{Net: a.Net, Data: a.Data, Opts: Options{}.WithDefaults()}
	filter := noise.ForGroup(noise.Softmax)
	samePoints(t, "zero-value vs defaulted sweep", mustSweep(t, defaulted, filter, 0.9, 3), mustSweep(t, zero, filter, 0.9, 3))

	// The analysis steps read the grid and threshold before any sweep runs.
	analyze := func(a *Analyzer) ([]GroupResult, []LayerResult) {
		groups, err := a.AnalyzeGroups(ctx, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := a.AnalyzeLayers(ctx, groups, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return groups, layers
	}
	wantG, wantL := analyze(&Analyzer{Net: a.Net, Data: a.Data, Opts: Options{}.WithDefaults()})
	gotG, gotL := analyze(&Analyzer{Net: a.Net, Data: a.Data})
	if !reflect.DeepEqual(wantG, gotG) || !reflect.DeepEqual(wantL, gotL) {
		t.Fatalf("zero-value analysis differs:\n%+v\n%+v\nvs\n%+v\n%+v", gotG, gotL, wantG, wantL)
	}
}
