package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"redcane/internal/noise"
	"redcane/internal/obs"
)

// stubFleet is an in-process Fleet: like the server's FleetManager it
// cuts the sweep into one-batch windows, evaluates each through a second
// analyzer's EvalWindow — the exact code path a remote worker runs — and
// can deliver the results out of order or stop short, which is how the
// coordinator's fold loop gets exercised without HTTP.
type stubFleet struct {
	worker  *Analyzer
	reverse bool // deliver windows in descending order
	limit   int  // deliver at most this many windows (0 = all)

	gotStart  int
	delivered int
}

func (f *stubFleet) RunSweep(ctx context.Context, job SweepJob, start int) (<-chan WindowResult, error) {
	f.gotStart = start
	var results []WindowResult
	for b := start; b < job.NB; b++ {
		correct, err := f.worker.EvalWindow(ctx, job, b, b+1)
		if err != nil {
			return nil, err
		}
		results = append(results, WindowResult{B0: b, B1: b + 1, Correct: correct})
	}
	if f.reverse {
		for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
			results[i], results[j] = results[j], results[i]
		}
	}
	if f.limit > 0 && len(results) > f.limit {
		results = results[:f.limit]
	}
	f.delivered = len(results)
	ch := make(chan WindowResult, len(results))
	for _, r := range results {
		ch <- r
	}
	close(ch)
	return ch, nil
}

func TestScopeFilterRoundTrip(t *testing.T) {
	gf, err := ScopeForGroup(noise.MACOutputs).Filter()
	if err != nil {
		t.Fatal(err)
	}
	if !gf(noise.Site{Layer: "Conv2D", Group: noise.MACOutputs}) ||
		gf(noise.Site{Layer: "Conv2D", Group: noise.Softmax}) {
		t.Fatal("group scope filter does not match noise.ForGroup")
	}
	lf, err := ScopeForLayer("Conv2D", noise.MACOutputs).Filter()
	if err != nil {
		t.Fatal(err)
	}
	if !lf(noise.Site{Layer: "Conv2D", Group: noise.MACOutputs}) ||
		lf(noise.Site{Layer: "Primary", Group: noise.MACOutputs}) {
		t.Fatal("layer scope filter does not match noise.ForLayerGroup")
	}
	if _, err := (SweepScope{Group: "bogus"}).Filter(); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestEvalWindowFoldsLikeOneBigWindow(t *testing.T) {
	// Summing single-batch windows must equal one full-range window: the
	// per-batch counts are independent integers (the fleet invariant).
	a := derived(t)
	_, job, err := a.sweepJob(ScopeForGroup(noise.MACOutputs), 31)
	if err != nil {
		t.Fatal(err)
	}
	nb := job.NB
	if nb < 2 {
		t.Fatalf("fixture yields %d batches; need >= 2", nb)
	}
	whole, err := a.EvalWindow(context.Background(), job, 0, nb)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int, len(whole))
	for b := 0; b < nb; b++ {
		w, err := derived(t).EvalWindow(context.Background(), job, b, b+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != len(sum) {
			t.Fatalf("window [%d,%d) returned %d counts, want %d", b, b+1, len(w), len(sum))
		}
		for i, c := range w {
			sum[i] += c
		}
	}
	for i := range sum {
		if sum[i] != whole[i] {
			t.Fatalf("eval %d: windowed sum %d != whole-range %d", i, sum[i], whole[i])
		}
	}

	// Out-of-range windows are refused, not silently clamped.
	for _, bad := range [][2]int{{-1, 1}, {2, 2}, {0, nb + 1}} {
		if _, err := a.EvalWindow(context.Background(), job, bad[0], bad[1]); err == nil {
			t.Fatalf("window [%d,%d) accepted with nb=%d", bad[0], bad[1], nb)
		}
	}
}

func TestEvalWindowRefusesMismatchedJob(t *testing.T) {
	// The drift guard: a worker derives the job's grid itself and refuses
	// a descriptor that differs in any of the four derived fields, with an
	// error a worker can tell apart from a failed evaluation.
	_, job, err := derived(t).sweepJob(ScopeForGroup(noise.MACOutputs), 31)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derived(t).EvalWindow(context.Background(), job, 0, 1); err != nil {
		t.Fatalf("matching job refused: %v", err)
	}
	for name, skew := range map[string]func(*SweepJob){
		"key":      func(j *SweepJob) { j.Key = "" },
		"evals":    func(j *SweepJob) { j.Evals++ },
		"nb":       func(j *SweepJob) { j.NB++ },
		"examples": func(j *SweepJob) { j.Examples-- },
	} {
		bad := job
		skew(&bad)
		if _, err := derived(t).EvalWindow(context.Background(), bad, 0, 1); !errors.Is(err, ErrJobMismatch) {
			t.Errorf("%s: EvalWindow = %v, want ErrJobMismatch", name, err)
		}
	}
	// An evaluation that fails is not a mismatch.
	if _, err := derived(t).EvalWindow(context.Background(), job, 0, job.NB+1); err == nil || errors.Is(err, ErrJobMismatch) {
		t.Fatalf("out-of-range window: %v, want an error other than ErrJobMismatch", err)
	}
}

func TestFleetSweepMatchesLocalSweep(t *testing.T) {
	// The tentpole identity: a sweep folded from fleet windows — delivered
	// out of order — must be bit-identical to the local single-process run.
	for _, scope := range []SweepScope{
		ScopeForGroup(noise.MACOutputs),
		ScopeForLayer("Conv2D", noise.MACOutputs),
	} {
		local := derived(t)
		want, err := local.Sweep(context.Background(), scope, 0.9, 17)
		if err != nil {
			t.Fatal(err)
		}

		fl := &stubFleet{worker: derived(t), reverse: true}
		coord := derived(t)
		coord.Fleet = fl
		got, err := coord.Sweep(context.Background(), scope, 0.9, 17)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "fleet vs local ("+scope.String()+")", want, got)
		if fl.gotStart != 0 {
			t.Fatalf("fresh fleet sweep started at batch %d", fl.gotStart)
		}
	}
}

func TestFleetSweepResumesLocalCheckpoint(t *testing.T) {
	// Local and fleet sweeps share one checkpoint format: interrupt a
	// LOCAL run after its first batch window, then finish it over the
	// fleet — only the unfolded suffix is distributed and the points are
	// bit-identical to an uninterrupted local run.
	dir := t.TempDir()
	scope := ScopeForGroup(noise.Softmax)
	const clean, seedBase = 0.9, 9

	want := derived(t)
	wantPts, err := want.Sweep(context.Background(), scope, clean, seedBase)
	if err != nil {
		t.Fatal(err)
	}

	a := derived(t)
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
		t.Fatalf("interrupted sweep error = %v", err)
	}

	fl := &stubFleet{worker: derived(t)}
	b := derived(t)
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store with checkpointed data reported fresh")
	}
	b.Checkpoint = st2
	b.Fleet = fl
	gotPts, err := b.Sweep(context.Background(), scope, clean, seedBase)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "fleet resume vs uninterrupted local", wantPts, gotPts)
	if fl.gotStart != 1 {
		t.Fatalf("fleet resumed at batch %d, want 1 (the local checkpoint)", fl.gotStart)
	}

	// And back the other way: a local analyzer finishes instantly from the
	// fleet-written checkpoint, scheduling nothing.
	c := derived(t)
	c.Obs = obs.New(obs.Off, nil)
	st3, _ := resumeStore(t, dir, c.Opts)
	c.Checkpoint = st3
	again, err := c.Sweep(context.Background(), scope, clean, seedBase)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "local resume of fleet checkpoint", wantPts, again)
	evals := 0
	for _, nm := range c.Opts.NMSweep {
		if nm != 0 {
			evals += c.Opts.Trials
		}
	}
	nb := (c.Data.TestX.Shape[0] + c.Opts.Batch - 1) / c.Opts.Batch
	if v := c.Obs.Counter("sweep.resumed_jobs").Value(); v != int64(evals*nb) {
		t.Fatalf("local resume of fleet checkpoint repeated jobs: resumed %d, want %d", v, evals*nb)
	}
}

func TestFleetSweepIncompleteIsAnError(t *testing.T) {
	// A fleet that closes the results channel short of the full grid (a
	// coordinator shutdown, a fleet failure) must surface an error, never
	// assemble points from a partial fold — the folded prefix stays in the
	// checkpoint for the next attempt.
	dir := t.TempDir()
	a := derived(t)
	st, _ := resumeStore(t, dir, a.Opts)
	a.Checkpoint = st
	fl := &stubFleet{worker: derived(t), limit: 1}
	a.Fleet = fl
	scope := ScopeForGroup(noise.MACOutputs)
	_, err := a.Sweep(context.Background(), scope, 0.9, 23)
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("partial fleet delivery: err = %v, want incomplete", err)
	}

	// The next attempt resumes after the folded prefix and completes.
	want, err := derived(t).Sweep(context.Background(), scope, 0.9, 23)
	if err != nil {
		t.Fatal(err)
	}
	b := derived(t)
	st2, _ := resumeStore(t, dir, b.Opts)
	b.Checkpoint = st2
	fl2 := &stubFleet{worker: derived(t)}
	b.Fleet = fl2
	got, err := b.Sweep(context.Background(), scope, 0.9, 23)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "retry after incomplete fleet run", want, got)
	if fl2.gotStart != 1 {
		t.Fatalf("retry started at batch %d, want 1", fl2.gotStart)
	}
}
