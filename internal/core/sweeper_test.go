package core

import (
	"context"
	"reflect"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/noise"
)

// mustSweep runs a sweep with a background context, failing the test on
// error — the ergonomic form for the many tests that never cancel.
func mustSweep(t *testing.T, a *Analyzer, filter noise.Filter, clean float64, seedBase uint64) []SweepPoint {
	t.Helper()
	pts, err := a.Sweep(context.Background(), filter, clean, seedBase)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return pts
}

// derived returns a copy of the shared analyzer with its own cold prefix
// cache and a small batch size (the fixture's eval set is ~18 samples, so
// batch 5 yields several batches to schedule and cache), so tests can
// vary Options without touching the shared fixture.
func derived(t *testing.T) *Analyzer {
	t.Helper()
	b := *sharedAnalyzer(t)
	b.pcache = nil
	b.Opts = b.Opts.WithDefaults()
	b.Opts.Batch = 5
	return &b
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
	x, y := a.evalData()
	clean := caps.Accuracy(a.Net, x, y, noise.None{}, a.Opts.Batch)
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
	// A memory bound too small for even one extra batch degenerates to
	// single-batch windows with no whole-set cache; results must still be
	// bit-identical to the fully cached run.
	a := derived(t)
	x, y := a.evalData()
	clean := caps.Accuracy(a.Net, x, y, noise.None{}, a.Opts.Batch)
	filter := noise.ForGroup(noise.Softmax)

	cached := derived(t)
	cached.Opts.PrefixCacheMB = 1 << 10
	want := mustSweep(t, cached, filter, clean, 4)
	if cached.pcache == nil {
		t.Fatal("large budget did not retain the whole-set prefix cache")
	}

	windowed := derived(t)
	windowed.Opts.PrefixCacheMB = -1 // below any real budget: window of 1
	frontier := windowed.Net.InjectionFrontier(filter)
	nb := (x.Shape[0] + windowed.Opts.Batch - 1) / windowed.Opts.Batch
	if nb < 2 {
		t.Fatalf("fixture too small to exercise windowing: %d batches", nb)
	}
	if w := windowed.prefixWindow(frontier, nb); w != 1 {
		t.Fatalf("window = %d, want 1", w)
	}
	samePoints(t, "windowed vs cached", want, mustSweep(t, windowed, filter, clean, 4))
	if windowed.pcache != nil {
		t.Fatal("windowed run must not retain a partial prefix cache")
	}
}

func TestSweepPrefixCacheReuse(t *testing.T) {
	// Back-to-back sweeps sharing a frontier (softmax and logits update
	// both front at the routing layer) must reuse the retained prefixes
	// and still reproduce a cold-cache sweep bit-for-bit.
	a := derived(t)
	x, y := a.evalData()
	clean := caps.Accuracy(a.Net, x, y, noise.None{}, a.Opts.Batch)

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

func TestPrefixWindowBounds(t *testing.T) {
	a := derived(t)
	a.Opts = a.Opts.WithDefaults()
	frontier := a.Net.InjectionFrontier(noise.ForGroup(noise.Softmax))
	if frontier == 0 {
		t.Fatal("softmax frontier unexpectedly 0")
	}
	if per := a.prefixBytesPerBatch(frontier, a.Opts.Batch); per <= 0 {
		t.Fatalf("prefix bytes = %d", per)
	}
	// The default 256 MiB budget dwarfs the fixture: whole set in one window.
	nb := (a.Data.TestX.Shape[0] + a.Opts.Batch - 1) / a.Opts.Batch
	if w := a.prefixWindow(frontier, nb); w != nb {
		t.Fatalf("window = %d, want %d", w, nb)
	}
}

func TestOptionsWorkerDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Workers < 1 {
		t.Fatalf("Workers default = %d", o.Workers)
	}
	if o.PrefixCacheMB != 256 {
		t.Fatalf("PrefixCacheMB default = %d", o.PrefixCacheMB)
	}
	if kept := (Options{Workers: 5, PrefixCacheMB: 7}).WithDefaults(); kept.Workers != 5 || kept.PrefixCacheMB != 7 {
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

func TestOptionsPrefixCacheClamped(t *testing.T) {
	// Regression: WithDefaults left negative PrefixCacheMB values as-is,
	// so a stray -5 flowed into the sweeper as a negative byte budget.
	// Every negative now normalizes to the canonical -1 ("single-batch
	// windows") and the derived byte budget is floored at zero.
	for _, mb := range []int{-1, -5, -1 << 30} {
		o := (Options{PrefixCacheMB: mb}).WithDefaults()
		if o.PrefixCacheMB != -1 {
			t.Fatalf("WithDefaults(PrefixCacheMB=%d) = %d, want -1", mb, o.PrefixCacheMB)
		}
	}
	a := derived(t)
	a.Opts.PrefixCacheMB = -7 // bypasses WithDefaults: the sweeper must still clamp
	frontier := a.Net.InjectionFrontier(noise.ForGroup(noise.Softmax))
	nb := (a.Data.TestX.Shape[0] + a.Opts.Batch - 1) / a.Opts.Batch
	if w := a.prefixWindow(frontier, nb); w != 1 {
		t.Fatalf("negative budget window = %d, want 1", w)
	}
}
