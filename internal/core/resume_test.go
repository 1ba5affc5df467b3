package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

func TestRunJobsRecoversPanicSerial(t *testing.T) {
	err := runJobs(context.Background(), nil, 1, 6, func(j int, _ *tensor.Scratch) {
		if j == 3 {
			panic("boom")
		}
	})
	var wp *workerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error = %v, want *workerPanic", err)
	}
	if wp.Job != 3 || wp.Value != "boom" || len(wp.Stack) == 0 {
		t.Fatalf("panic capture = %+v", wp)
	}
}

func TestRunJobsRecoversPanicParallel(t *testing.T) {
	var ran atomic.Int64
	err := runJobs(context.Background(), nil, 4, 64, func(j int, _ *tensor.Scratch) {
		ran.Add(1)
		if j == 10 {
			panic("kaboom")
		}
	})
	var wp *workerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error = %v, want *workerPanic", err)
	}
	if wp.Value != "kaboom" {
		t.Fatalf("panic value = %v", wp.Value)
	}
	// Dispatch stops once a panic is recorded: far fewer than all jobs run.
	if n := ran.Load(); n == 0 || n > 64 {
		t.Fatalf("ran = %d jobs", n)
	}
}

func TestRunJobsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := runJobs(ctx, nil, 2, 1000, func(j int, _ *tensor.Scratch) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: ran %d", n)
	}
}

// panicAfter returns a MAC-outputs filter that panics once it has been
// consulted more than n times. InjectionFrontier probes the filter outside
// the worker pool, so n must exceed one frontier scan; the overflow then
// fires inside a sweep worker's injection path.
func panicAfter(n int64) noise.Filter {
	var calls atomic.Int64
	inner := noise.ForGroup(noise.MACOutputs)
	return func(s noise.Site) bool {
		if calls.Add(1) > n {
			panic("injector exploded")
		}
		return inner(s)
	}
}

func TestSweepSurfacesWorkerPanicWithCoordinates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := derived(t)
		a.Opts.Workers = workers
		_, err := sweepFilter(context.Background(), a, panicAfter(50), 0.9, 1)
		var jp *JobPanicError
		if !errors.As(err, &jp) {
			t.Fatalf("workers=%d: error = %v, want *JobPanicError", workers, err)
		}
		if jp.Point < 0 || jp.Point >= len(a.Opts.NMSweep) ||
			jp.Trial < 0 || jp.Trial >= a.Opts.Trials || jp.Batch < 0 {
			t.Fatalf("workers=%d: coordinates out of range: %+v", workers, jp)
		}
		if jp.NM != a.Opts.NMSweep[jp.Point] {
			t.Fatalf("workers=%d: NM %g does not match point %d", workers, jp.NM, jp.Point)
		}
		msg := jp.Error()
		for _, want := range []string{"worker panic", "point=", "trial=", "batch=", "injector exploded"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: error message missing %q: %s", workers, want, msg)
			}
		}
	}
}

// votesPanic is a float backend whose class-capsule votes panic. It
// marks every layer approximate, so its frontier is 0 and the panic fires
// in an evaluation job, not in the clean prefix.
type votesPanic struct{ caps.Float }

func (votesPanic) Name() string            { return "votes-panic" }
func (votesPanic) ApproxLayer(string) bool { return true }
func (votesPanic) CapsVotes(string, *tensor.Tensor, *tensor.Tensor, *tensor.Scratch, *int64) *tensor.Tensor {
	panic("votes exploded")
}

func TestEvalBackendSurfacesWorkerPanicWithSection(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := derived(t)
		a.Opts.Workers = workers
		_, nb := a.SweepGrid()
		_, err := a.EvalBackend(context.Background(), votesPanic{}, "validate-panic")
		var jp *JobPanicError
		if !errors.As(err, &jp) {
			t.Fatalf("workers=%d: error = %v, want *JobPanicError", workers, err)
		}
		if jp.Section != "validate-panic" || jp.Prefix || jp.Point != -1 || jp.Batch < 0 || jp.Batch >= nb {
			t.Fatalf("workers=%d: coordinates = %+v", workers, jp)
		}
		msg := jp.Error()
		for _, want := range []string{"validate-panic", "worker panic", "batch=", "votes exploded"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: error message missing %q: %s", workers, want, msg)
			}
		}
		if strings.Contains(msg, "prefix") {
			t.Fatalf("workers=%d: evaluation-job panic reported as a prefix panic: %s", workers, msg)
		}
	}
}

func TestSweepCancelledMidRunReturnsContextError(t *testing.T) {
	a := derived(t)
	a.windowBatches = 1 // single-batch windows: several cancellation points
	ctx, cancel := context.WithCancel(context.Background())
	var windows int
	a.afterWindow = func(done, total int) {
		windows++
		cancel()
	}
	_, err := a.Sweep(ctx, ScopeForGroup(noise.MACOutputs), 0.9, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if windows != 1 {
		t.Fatalf("sweep continued after cancellation: %d windows", windows)
	}
}

// resumeStore opens a checkpoint store in dir for the derived fixture.
func resumeStore(t testing.TB, dir string, opts Options) (*checkpoint.Store, bool) {
	t.Helper()
	st, resumed, err := checkpoint.Open(dir, "test", 5, opts.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	return st, resumed
}

func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	// The tentpole acceptance test at the engine level: interrupt a sweep
	// after its first batch window, resume it from the checkpoint, and the
	// final points must be bit-identical to an uninterrupted run.
	dir := t.TempDir()
	filter := noise.ForGroup(noise.Softmax)
	const clean = 0.9

	want := derived(t)
	wantPts := mustSweep(t, want, filter, clean, 9)

	// Interrupted run: cancel after the first checkpointed window.
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
	if _, err := sweepFilter(ctx, a, filter, clean, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v", err)
	}

	// Resumed run: a fresh analyzer over the same store skips the finished
	// window (visible in sweep.resumed_jobs) and completes identically.
	b := derived(t)
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store with checkpointed data reported fresh")
	}
	b.Checkpoint = st2
	gotPts := mustSweep(t, b, filter, clean, 9)
	samePoints(t, "resumed vs uninterrupted", wantPts, gotPts)
	if v := b.Obs.Counter("sweep.resumed_jobs").Value(); v <= 0 {
		t.Fatalf("sweep.resumed_jobs = %d, want > 0", v)
	}

	// Fully-finished sweep: a third run resumes the Done state and repeats
	// no jobs at all.
	c := derived(t)
	c.Obs = obs.New(obs.Off, nil)
	st3, _ := resumeStore(t, dir, c.Opts)
	c.Checkpoint = st3
	again := mustSweep(t, c, filter, clean, 9)
	samePoints(t, "fully resumed", wantPts, again)
	total := int64(0)
	for _, nm := range c.Opts.NMSweep {
		if nm != 0 {
			total += int64(c.Opts.Trials)
		}
	}
	nb := int64((c.Data.TestX.Shape[0] + c.Opts.Batch - 1) / c.Opts.Batch)
	if v := c.Obs.Counter("sweep.resumed_jobs").Value(); v != total*nb {
		t.Fatalf("fully resumed sweep.resumed_jobs = %d, want %d", v, total*nb)
	}
}

func TestResumeRejectsImpossibleCheckpointSections(t *testing.T) {
	// A checkpoint section no run could have written must never be folded
	// into a result: the fold warns, starts over, and ends with the same
	// result and checkpoint bytes as a fresh run. Covers sweeps and
	// backend evaluations, which share the one resume path.
	ctx := context.Background()
	filter := noise.ForGroup(noise.MACOutputs)
	be := axe.QuantExact{Bits: 8}
	a := derived(t)
	_, nb := a.SweepGrid()
	n, batch := a.Data.TestX.Shape[0], a.Opts.Batch
	if nb < 3 || n >= nb*batch {
		t.Fatalf("fixture needs >= 3 batches and a short last one: n=%d nb=%d", n, nb)
	}
	cases := impossibleSections(a)
	runs := []struct {
		name, key string
		evals     int
		run       func(a *Analyzer) any
	}{
		{"sweep", "sweep-27", len(sweepEvals(a.Opts)), func(a *Analyzer) any { return mustSweep(t, a, filter, 0.9, 27) }},
		{"backend", "eval-27", 1, func(a *Analyzer) any {
			acc, err := a.EvalBackend(ctx, be, "eval-27")
			if err != nil {
				t.Fatal(err)
			}
			return acc
		}},
	}
	for _, r := range runs {
		freshDir := t.TempDir()
		fresh := derived(t)
		fresh.Checkpoint, _ = resumeStore(t, freshDir, fresh.Opts)
		want := r.run(fresh)
		for name, section := range cases {
			dir := t.TempDir()
			b := derived(t)
			b.Obs = obs.New(obs.Off, nil)
			st, _ := resumeStore(t, dir, b.Opts)
			if err := st.Put(r.key, section(r.evals)); err != nil {
				t.Fatal(err)
			}
			b.Checkpoint = st
			if got := r.run(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: result %v, want %v", r.name, name, got, want)
			}
			if v := b.Obs.Counter("sweep.resumed_jobs").Value(); v != 0 {
				t.Fatalf("%s, %s: resumed %d jobs from an impossible section", r.name, name, v)
			}
			sameDirBytes(t, freshDir, dir)
		}
	}
}

// impossibleSections lists, by what makes each one impossible, fold
// sections no run over a's evaluation split could have written.
func impossibleSections(a *Analyzer) map[string]func(evals int) sweepState {
	_, nb := a.SweepGrid()
	n, batch := a.Data.TestX.Shape[0], a.Opts.Batch
	return map[string]func(evals int) sweepState{
		"negative count marked done": func(e int) sweepState { return sweepState{Correct: fill(e, -5), BatchesDone: 1, Done: true} },
		"done before the last batch": func(e int) sweepState { return sweepState{Correct: fill(e, 0), BatchesDone: 1, Done: true} },
		"all batches but not done":   func(e int) sweepState { return sweepState{Correct: fill(e, 0), BatchesDone: nb} },
		"count above window size":    func(e int) sweepState { return sweepState{Correct: fill(e, batch+1), BatchesDone: 1} },
		"count above split size":     func(e int) sweepState { return sweepState{Correct: fill(e, n+1), BatchesDone: nb, Done: true} },
		"batches beyond the split":   func(e int) sweepState { return sweepState{Correct: fill(e, 0), BatchesDone: nb + 1, Done: true} },
		"negative batches":           func(e int) sweepState { return sweepState{Correct: fill(e, 0), BatchesDone: -1} },
		"wrong length":               func(e int) sweepState { return sweepState{Correct: fill(e+1, 0), BatchesDone: 1} },
	}
}

// fileSections decodes the sections of the checkpoint file at path.
func fileSections(t testing.TB, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Sections map[string]json.RawMessage `json:"sections"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	return file.Sections
}

func FuzzCheckpointResume(f *testing.F) {
	// A fold's section is the only checkpoint state any reader decodes,
	// so whatever bytes the checkpoint file holds, a sweep over it either
	// resumes a section within resume's documented bounds and completes
	// it with the remaining batches, or ends exactly like a fresh run.
	ctx := context.Background()
	scope := ScopeForGroup(noise.Softmax)
	const clean, seedBase, key = 0.9, 27, "sweep-27"
	fresh := derived(f)
	fresh.Checkpoint, _ = resumeStore(f, f.TempDir(), fresh.Opts)
	want, err := fresh.Sweep(ctx, scope, clean, seedBase)
	if err != nil {
		f.Fatal(err)
	}
	wantSection := fileSections(f, fresh.Checkpoint.Path())[key]
	evals := len(sweepEvals(fresh.Opts))
	_, nb := fresh.SweepGrid()
	n, batch := fresh.Data.TestX.Shape[0], fresh.Opts.Batch

	written, err := os.ReadFile(fresh.Checkpoint.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add(bytes.Replace(written, []byte(`"version": 1,`), []byte(`"version": 2,`), 1))
	for _, section := range impossibleSections(fresh) {
		st, _ := resumeStore(f, f.TempDir(), fresh.Opts)
		if err := st.Put(key, section(evals)); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(st.Path())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	dir := f.TempDir()
	path := checkpoint.Path(dir, "test", 5, fresh.Opts.Fingerprint())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each input gets a new file, removed again once opened, so the
		// store creates its file rather than replacing one: replacing a
		// file can force a synchronous flush on some filesystems (ext4's
		// auto_da_alloc), which throttles fuzzing to a few inputs a second.
		// A removal that finds no file changes nothing, so its error is
		// dropped.
		_ = os.Remove(path)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A corrupt file opens as a fresh store along with its parse error.
		st, _, _ := checkpoint.Open(dir, "test", 5, fresh.Opts.Fingerprint())
		_ = os.Remove(path)
		// A copy of the fresh run's analyzer keeps its retained clean
		// prefix, which spares each input the forward pass up to it.
		w := *fresh
		a := &w
		a.Obs = obs.New(obs.Off, nil)
		var loaded sweepState
		decoded := st.Get(key, &loaded)
		a.Checkpoint = st
		got, err := a.Sweep(ctx, scope, clean, seedBase)
		if err != nil {
			t.Fatal(err)
		}
		resumed := a.Obs.Counter("sweep.resumed_jobs").Value()
		if resumed == 0 {
			samePoints(t, "fresh start", want, got)
			// The store keeps any foreign sections it loaded, so only the
			// sweep's own section must match the fresh run's bytes.
			if s := fileSections(t, path)[key]; !bytes.Equal(s, wantSection) {
				t.Fatalf("section %s = %s, want the fresh run's %s", key, s, wantSection)
			}
			return
		}
		if !decoded || len(loaded.Correct) != evals || loaded.BatchesDone < 1 || loaded.BatchesDone > nb ||
			loaded.Done != (loaded.BatchesDone == nb) || resumed != int64(loaded.BatchesDone*evals) {
			t.Fatalf("resumed %d jobs from section %+v (evals %d, nb %d)", resumed, loaded, evals, nb)
		}
		for _, c := range loaded.Correct {
			if c < 0 || c > min(loaded.BatchesDone*batch, n) {
				t.Fatalf("resumed a count outside [0, %d]: %+v", min(loaded.BatchesDone*batch, n), loaded)
			}
		}
		rest := make([]int, evals)
		if loaded.BatchesDone < nb {
			if rest, err = a.EvalWindow(ctx, scope, seedBase, loaded.BatchesDone, nb); err != nil {
				t.Fatal(err)
			}
		}
		var done sweepState
		if !st.Get(key, &done) || !done.Done || done.BatchesDone != nb || len(done.Correct) != evals {
			t.Fatalf("resumed fold left section %+v", done)
		}
		for i, c := range done.Correct {
			if c != loaded.Correct[i]+rest[i] {
				t.Fatalf("count %d = %d, want resumed %d + remaining %d", i, c, loaded.Correct[i], rest[i])
			}
		}
		samePoints(t, "resumed", assemblePoints(a.Opts, done.Correct, clean, n), got)
	})
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestSweepIgnoresCheckpointFromOtherOptions(t *testing.T) {
	// A store opened under a different fingerprint must not leak state: the
	// identity is part of the file key, so Open returns a fresh store.
	dir := t.TempDir()
	a := derived(t)
	st, _ := resumeStore(t, dir, a.Opts)
	a.Checkpoint = st
	mustSweep(t, a, noise.ForGroup(noise.MACOutputs), 0.9, 2)

	b := derived(t)
	b.Opts.Trials = a.Opts.Trials + 1 // results-affecting change
	if fp := b.Opts.Fingerprint(); fp == a.Opts.Fingerprint() {
		t.Fatal("fingerprint ignored Trials")
	}
	_, resumed := resumeStore(t, dir, b.Opts)
	if resumed {
		t.Fatal("checkpoint resumed across a results-affecting options change")
	}
}

// analyzeAll runs Steps 2–5 (the group and layer analyses) on a.
func analyzeAll(t *testing.T, a *Analyzer, clean float64) ([]GroupResult, []LayerResult) {
	t.Helper()
	ctx := context.Background()
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := a.AnalyzeLayers(ctx, groups, clean)
	if err != nil {
		t.Fatal(err)
	}
	return groups, layers
}

func TestAnalyzeGroupsAndLayersResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := derived(t)
	st, _ := resumeStore(t, dir, a.Opts)
	a.Checkpoint = st
	clean := oracleAccuracy(a, nil, nil)
	groups, layers := analyzeAll(t, a, clean)

	// A fresh analyzer over the same store must reproduce every step
	// from the folded sweep sections without evaluating a single job: each
	// sweep still folds, from its finished section.
	b := derived(t)
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store not resumed")
	}
	b.Checkpoint = st2
	groups2, layers2 := analyzeAll(t, b, clean)
	if v := b.Obs.Counter("sweep.jobs").Value(); v != 0 {
		t.Fatalf("resumed analysis evaluated %d sweep jobs, want 0", v)
	}
	_, nb := b.SweepGrid()
	every := int64((len(groups) + len(layers)) * len(sweepEvals(b.Opts)) * nb)
	if v := b.Obs.Counter("sweep.resumed_jobs").Value(); v != every {
		t.Fatalf("resumed analysis skipped %d jobs, want every job of every sweep (%d)", v, every)
	}
	if !reflect.DeepEqual(groups2, groups) || !reflect.DeepEqual(layers2, layers) {
		t.Fatalf("resumed analysis differs:\n%+v\n%+v\nvs\n%+v\n%+v", groups2, layers2, groups, layers)
	}
}

func TestAnalysisNeverReadsDerivedSections(t *testing.T) {
	// Checkpoints written before the fold became the only checkpoint
	// writer also carry "clean", "groups" and "layers" sections holding
	// finished results. The analysis derives its results from the sweep
	// sections alone, so even deliberately wrong stale sections — every
	// group and layer resilient at the largest NM — leave the results
	// equal to a fresh run's.
	fresh := derived(t)
	clean := oracleAccuracy(fresh, nil, nil)
	wantG, wantL := analyzeAll(t, fresh, clean)

	a := derived(t)
	st, _ := resumeStore(t, t.TempDir(), a.Opts)
	type record struct {
		Layer       string       `json:"layer,omitempty"`
		Group       string       `json:"group"`
		Points      []SweepPoint `json:"points"`
		ToleratedNM float64      `json:"tolerated_nm"`
		Resilient   bool         `json:"resilient"`
	}
	wrong := []SweepPoint{{NM: a.Opts.NMSweep[0], Accuracy: 1}}
	var groups, layers []record
	for _, g := range noise.Groups() {
		sites := a.ExtractGroups()[g]
		if len(sites) == 0 {
			continue
		}
		groups = append(groups, record{Group: g.String(), Points: wrong, ToleratedNM: wrong[0].NM, Resilient: true})
		for _, s := range sites {
			layers = append(layers, record{Layer: s.Layer, Group: g.String(), Points: wrong, ToleratedNM: wrong[0].NM, Resilient: true})
		}
	}
	for key, v := range map[string]any{
		"clean":  map[string]float64{"accuracy": 0.125},
		"groups": groups,
		"layers": layers,
	} {
		if err := st.Put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	a.Checkpoint = st
	gotG, gotL := analyzeAll(t, a, clean)
	if !reflect.DeepEqual(gotG, wantG) || !reflect.DeepEqual(gotL, wantL) {
		t.Fatalf("analysis read stale derived sections:\n%+v\n%+v\nwant\n%+v\n%+v", gotG, gotL, wantG, wantL)
	}
}

func TestMethodologyCheckpointHoldsOnlySweepSections(t *testing.T) {
	// The fold is the only checkpoint writer, and a methodology run folds
	// nothing but sweeps under a name: the clean baseline and the Step 6
	// validation are unnamed evaluations.
	a := derived(t)
	st, _ := resumeStore(t, t.TempDir(), a.Opts)
	a.Checkpoint = st
	runMethodology(t, a, ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3))
	sections := fileSections(t, st.Path())
	if len(sections) == 0 {
		t.Fatal("methodology checkpoint has no sections")
	}
	for key := range sections {
		if !strings.HasPrefix(key, "sweep-") {
			t.Errorf("methodology checkpoint holds section %q", key)
		}
	}
}

func TestRefinedJSONRoundTrip(t *testing.T) {
	base := &Report{
		Network: "capsnet", Dataset: "mnist-like",
		CleanAccuracy: 0.95, ValidatedAccuracy: 0.80, MulEnergySaving: 0.4,
		Groups: []GroupResult{{Group: noise.Softmax, ToleratedNM: 0.5, Resilient: true}},
		Choices: []Choice{{
			Site:        noise.Site{Layer: "ClassCaps", Group: noise.Softmax},
			ComponentNM: 0.3, BudgetNM: 0.5,
		}},
	}
	base.Choices[0].Component.Name = "mul8u_Z"
	ref := RefineResult{
		Choices:  append([]Choice(nil), base.Choices...),
		Accuracy: 0.94,
		Met:      true,
		Steps: []RefineStep{{
			Round: 0, Site: base.Choices[0].Site,
			From: "mul8u_Z", To: "mul8u_Y", Accuracy: 0.94,
		}},
	}
	ref.Choices[0].Component.Name = "mul8u_Y"
	ref.Choices[0].ComponentNM = 0.1

	var b strings.Builder
	if err := WriteRefinedJSON(&b, base, ref); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ValidatedAccuracy float64 `json:"validated_accuracy"`
		Choices           []struct {
			Component string `json:"component"`
		} `json:"choices"`
		Refinement struct {
			Accuracy float64 `json:"accuracy"`
			Met      bool    `json:"met"`
			Steps    []struct {
				Round int    `json:"round"`
				Layer string `json:"layer"`
				From  string `json:"from"`
				To    string `json:"to"`
			} `json:"steps"`
		} `json:"refinement"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	// The refined JSON must carry the POST-refinement design, not the
	// pre-refinement report (the bug this guards against).
	if decoded.ValidatedAccuracy != 0.94 {
		t.Fatalf("validated_accuracy = %g, want the refined 0.94", decoded.ValidatedAccuracy)
	}
	if len(decoded.Choices) != 1 || decoded.Choices[0].Component != "mul8u_Y" {
		t.Fatalf("choices = %+v, want the upgraded component", decoded.Choices)
	}
	if !decoded.Refinement.Met || decoded.Refinement.Accuracy != 0.94 {
		t.Fatalf("refinement = %+v", decoded.Refinement)
	}
	if len(decoded.Refinement.Steps) != 1 || decoded.Refinement.Steps[0].To != "mul8u_Y" {
		t.Fatalf("steps = %+v", decoded.Refinement.Steps)
	}

	// With no repair steps the trace must render as [] rather than null.
	var empty strings.Builder
	if err := WriteRefinedJSON(&empty, base, RefineResult{Choices: base.Choices, Accuracy: 0.8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"steps": []`) {
		t.Fatalf("empty steps not rendered as []:\n%s", empty.String())
	}
}
