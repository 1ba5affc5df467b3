package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

func TestWithDefaultsNormalizesNMSweep(t *testing.T) {
	// Callers may hand the grid in any order; SelectComponents and the
	// resilience marking assume NMSweep[0] is the maximum.
	o := Options{NMSweep: []float64{0.1, 0.5, -1, 0.5, 0, 0.25}}.WithDefaults()
	want := []float64{0.5, 0.25, 0.1, 0}
	if !reflect.DeepEqual(o.NMSweep, want) {
		t.Fatalf("normalized grid = %v, want %v", o.NMSweep, want)
	}
	// An already-normalized grid round-trips unchanged, keeping default
	// fingerprints stable.
	o2 := Options{NMSweep: append([]float64(nil), PaperNMSweep...)}.WithDefaults()
	if !reflect.DeepEqual(o2.NMSweep, PaperNMSweep) {
		t.Fatalf("paper grid changed: %v", o2.NMSweep)
	}
	// A grid with nothing usable falls back to the paper default instead
	// of leaving an empty sweep.
	o3 := Options{NMSweep: []float64{-3, -0.5}}.WithDefaults()
	if !reflect.DeepEqual(o3.NMSweep, PaperNMSweep) {
		t.Fatalf("all-negative grid = %v, want paper default", o3.NMSweep)
	}
}

func TestExtractGroupsMemoized(t *testing.T) {
	// Step 1's instrumented forward pass runs once per analyzer; repeated
	// callers (SelectComponents per site, Refine, experiments) share it.
	a := derived(t)
	a.sites = nil
	g1 := a.ExtractGroups()
	g2 := a.ExtractGroups()
	if reflect.ValueOf(g1).Pointer() != reflect.ValueOf(g2).Pointer() {
		t.Fatal("ExtractGroups rebuilt the site map on a repeated call")
	}
}

func TestMACAssignmentsOnlyMACSites(t *testing.T) {
	choices := []Choice{
		{Site: noise.Site{Layer: "Conv1", Group: noise.MACOutputs},
			Component: approx.Component{Name: "drum6", Model: approx.DRUM{K: 6}}},
		{Site: noise.Site{Layer: "Conv1", Group: noise.Activations},
			Component: approx.Component{Name: "relu-approx", Model: approx.OperandTrunc{ABits: 4, BBits: 4}}},
		{Site: noise.Site{Layer: "ClassCaps", Group: noise.MACOutputs},
			Component: approx.Component{Name: "exact", Model: approx.Exact{}}},
	}
	got := MACAssignments(choices)
	if len(got) != 2 {
		t.Fatalf("assignments = %v, want Conv1 and ClassCaps only", got)
	}
	if _, ok := got["Conv1"].(approx.DRUM); !ok {
		t.Fatalf("Conv1 = %#v", got["Conv1"])
	}
	// Exact choices stay in the map (the backend drops them) so the keys
	// cover every MAC layer of the design.
	if _, ok := got["ClassCaps"].(approx.Exact); !ok {
		t.Fatalf("ClassCaps = %#v", got["ClassCaps"])
	}
}

// designBackend builds a small approximate design over the fixture's MAC
// sites for the EvalBackend tests.
func designBackend(t *testing.T, a *Analyzer) caps.Backend {
	t.Helper()
	macs := a.ExtractGroups()[noise.MACOutputs]
	if len(macs) == 0 {
		t.Fatal("fixture has no MAC sites")
	}
	// Approximate the last MAC layer so the backend has a non-trivial
	// exact prefix (several windows to cache, checkpoint and resume).
	choices := []Choice{{
		Site:      macs[len(macs)-1],
		Component: approx.Component{Name: "drum6", Model: approx.DRUM{K: 6}},
	}}
	be, err := DesignBackend(choices, 8)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// oracleAccuracy is the serial reference evaluator the engine must match:
// one full forward pass per batch of the analyzer's evaluation split,
// batch i under inj.Split(i) (nil = noiseless), on backend be (nil =
// float) — no worker pool, windows or prefix replay.
func oracleAccuracy(a *Analyzer, be caps.Backend, inj noise.Splitter) float64 {
	if be == nil {
		be = caps.Float{}
	}
	if inj == nil {
		inj = noise.None{}
	}
	batch := a.Opts.WithDefaults().Batch
	x, y := a.evalData()
	n := x.Shape[0]
	sample := x.Len() / n
	correct := 0
	for bi := 0; bi*batch < n; bi++ {
		lo, hi := bi*batch, min((bi+1)*batch, n)
		xb := tensor.NewFrom(x.Data[lo*sample:hi*sample], append([]int{hi - lo}, x.Shape[1:]...)...)
		for i, p := range a.Net.ClassifyFromExec(0, xb, inj.Split(uint64(bi)), nil, be) {
			if p == y[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// macNoise is a per-site injector putting NM on every MAC output.
func macNoise(a *Analyzer, nm float64) *noise.PerSite {
	params := map[noise.Site]noise.Params{}
	for _, s := range a.ExtractGroups()[noise.MACOutputs] {
		params[s] = noise.Params{NM: nm}
	}
	return noise.NewPerSite(params, 17)
}

func TestEvalBackendMatchesAccuracyExec(t *testing.T) {
	// EvalBackend is a one-evaluation fold of the sweep engine: same
	// samples, same backend, same result as the serial oracle — the
	// windows, workers and prefix replay must not change the measurement.
	a := derived(t)
	be := axe.QuantExact{Bits: 8}
	got, err := a.EvalBackend(context.Background(), be, "eval-vs-accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleAccuracy(a, be, nil); got != want {
		t.Fatalf("EvalBackend = %g, serial oracle = %g", got, want)
	}
}

func TestEvaluateMatchesSerialOracle(t *testing.T) {
	// A noisy evaluation runs batch i under inj.Split(i), so any worker
	// count and any window layout reproduces the serial oracle exactly.
	a := derived(t)
	want := oracleAccuracy(a, nil, macNoise(a, 0.3))
	if want == oracleAccuracy(a, nil, nil) {
		t.Fatal("injector had no effect; the invariance check is vacuous")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, wb := range []int{0, 1} {
			b := derived(t)
			b.Opts.Workers, b.windowBatches = workers, wb
			got, err := b.Evaluate(context.Background(), nil, macNoise(b, 0.3), "")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("workers=%d windowBatches=%d: accuracy %g != serial oracle %g", workers, wb, got, want)
			}
		}
	}
}

// panicOnBatchOf wraps a layer so that its forward pass panics on a batch
// of exactly n samples.
type panicOnBatchOf struct {
	caps.Layer
	n int
}

func (l panicOnBatchOf) Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be caps.Backend) *tensor.Tensor {
	if x.Shape[0] == l.n {
		panic("boom")
	}
	return l.Layer.Forward(x, inj, s, be)
}

func TestEvaluateSurfacesWorkerPanicWithBatch(t *testing.T) {
	// Thirteen samples in batches of five: only the short last batch
	// (index 2) reaches the panicking layer.
	for _, workers := range []int{1, 4} {
		for _, noisy := range []bool{false, true} {
			a := derived(t)
			a.Opts.Workers, a.Opts.MaxEval = workers, 13
			if x, _ := a.evalData(); x.Shape[0] != 13 {
				t.Fatalf("fixture has %d test samples, want at least 13", x.Shape[0])
			}
			net := *a.Net
			net.Layers = append([]caps.Layer(nil), a.Net.Layers...)
			last := len(net.Layers) - 1
			net.Layers[last] = panicOnBatchOf{Layer: net.Layers[last], n: 3}
			a.Net = &net
			var err error
			if noisy {
				_, err = a.Evaluate(context.Background(), nil, macNoise(a, 0.1), "")
			} else {
				_, err = a.Evaluate(context.Background(), nil, nil, "")
			}
			var jp *JobPanicError
			if !errors.As(err, &jp) {
				t.Fatalf("workers=%d noisy=%v: error = %v, want *JobPanicError", workers, noisy, err)
			}
			// The clean pass runs the whole network as the clean prefix;
			// a noisy pass replays no prefix.
			if jp.Section != "" || jp.Batch != 2 || jp.Point != -1 || jp.Prefix == noisy {
				t.Fatalf("workers=%d noisy=%v: coordinates = %+v", workers, noisy, jp)
			}
			if msg := jp.Error(); !strings.Contains(msg, "unnamed evaluation: worker panic") || !strings.Contains(msg, "2") || !strings.Contains(msg, "boom") {
				t.Fatalf("workers=%d noisy=%v: error message %q", workers, noisy, msg)
			}
		}
	}
}

func TestEvaluateHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		a := derived(t)
		a.Opts.Workers = workers
		if _, err := a.Evaluate(ctx, nil, macNoise(a, 0.1), ""); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d noisy: error = %v, want context.Canceled", workers, err)
		}
		if _, err := a.Evaluate(ctx, nil, nil, ""); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d clean: error = %v, want context.Canceled", workers, err)
		}
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	a := derived(t)
	ds := *a.Data
	ds.TestX, ds.TestY = tensor.New(0, ds.Channels, ds.H, ds.W), nil
	a.Data = &ds
	if acc, err := a.Evaluate(context.Background(), nil, nil, ""); err != nil || acc != 0 {
		t.Fatalf("empty accuracy = %g, err %v", acc, err)
	}
}

func TestUnnamedEvaluationNeitherCheckpointsNorProbes(t *testing.T) {
	// Only a named evaluation persists its windows and records probes.
	for _, section := range []string{"", "named"} {
		a := derived(t)
		st, _ := resumeStore(t, t.TempDir(), a.Opts)
		a.Checkpoint, a.Probes = st, NewProbeSet()
		if _, err := a.Evaluate(context.Background(), nil, macNoise(a, 0.1), section); err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(st.Path())
		if written := statErr == nil; written != (section != "") {
			t.Errorf("section %q: checkpoint written = %v", section, written)
		}
		if probed := len(a.Probes.Sweeps()) > 0; probed != (section != "") {
			t.Errorf("section %q: probes recorded = %v", section, probed)
		}
	}
}

func TestEvalBackendWorkerInvariant(t *testing.T) {
	a := derived(t)
	be := designBackend(t, a)
	a.Opts.Workers = 1
	want, err := a.EvalBackend(context.Background(), be, "workers")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		b := derived(t)
		b.Opts.Workers = workers
		got, err := b.EvalBackend(context.Background(), be, "workers")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d accuracy %g != %g", workers, got, want)
		}
	}
}

func TestEvalBackendResumeMatchesUninterrupted(t *testing.T) {
	// Interrupt a backend evaluation after its first window, resume from
	// the checkpoint, and the final accuracy must be bit-identical to an
	// uninterrupted run.
	dir := t.TempDir()
	const section = "validate-test"

	want := derived(t)
	be := designBackend(t, want)
	wantAcc, err := want.EvalBackend(context.Background(), be, section)
	if err != nil {
		t.Fatal(err)
	}

	a := derived(t)
	a.windowBatches = 1 // single-batch windows: a checkpoint after every batch
	st, resumed := resumeStore(t, dir, a.Opts)
	if resumed {
		t.Fatal("fresh store reported resumed")
	}
	a.Checkpoint = st
	ctx, cancel := context.WithCancel(context.Background())
	a.afterWindow = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := a.EvalBackend(ctx, be, section); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted eval error = %v", err)
	}

	b := derived(t)
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store with checkpointed data reported fresh")
	}
	b.Checkpoint = st2
	gotAcc, err := b.EvalBackend(context.Background(), be, section)
	if err != nil {
		t.Fatal(err)
	}
	if gotAcc != wantAcc {
		t.Fatalf("resumed accuracy %g != uninterrupted %g", gotAcc, wantAcc)
	}
}

func TestPickChainLen(t *testing.T) {
	cases := []struct{ depth, want int }{
		{9, 9}, {81, 81}, {20, 9}, {500, 81}, {0, 9}, {1, 9},
	}
	for _, c := range cases {
		if got := PickChainLen(LibraryChainLens, c.depth); got != c.want {
			t.Errorf("PickChainLen(%v, %d) = %d, want %d", LibraryChainLens, c.depth, got, c.want)
		}
	}
	// An empty availability list returns the depth itself.
	if got := PickChainLen(nil, 50); got != 50 {
		t.Errorf("empty library = %d, want 50", got)
	}
}

func TestProfilesForDepth(t *testing.T) {
	mk := func(name string, cl int) ComponentProfile {
		return ComponentProfile{Component: approx.Component{Name: name}, ChainLen: cl}
	}
	profiles := []ComponentProfile{mk("a9", 9), mk("a81", 81), mk("agnostic", 0), mk("b9", 9)}
	deep := profilesForDepth(profiles, 200)
	names := map[string]bool{}
	for _, p := range deep {
		names[p.Component.Name] = true
	}
	if !names["a81"] || !names["agnostic"] || names["a9"] || names["b9"] {
		t.Fatalf("depth 200 subset = %v", names)
	}
	// Unknown depth or a single-depth library returns the input unchanged.
	if got := profilesForDepth(profiles, 0); len(got) != len(profiles) {
		t.Fatalf("depth 0 filtered to %d profiles", len(got))
	}
	single := []ComponentProfile{mk("a9", 9), mk("b9", 9)}
	if got := profilesForDepth(single, 200); len(got) != 2 {
		t.Fatalf("single-depth library filtered to %d profiles", len(got))
	}
}
