package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// This file implements the analysis engine: the hot path of the
// methodology. Steps 2 and 4 re-run full test-set inference for every
// (group or layer) × noise-magnitude point × trial; the clean baseline,
// the Step 6 validation, refinement and the bit-accurate check each
// re-run it once, under an injector or a backend. All of them run
// through one plan → window → fold pipeline:
//
//   - sweepPlan and evalPlan normalize the options and lay out one fold:
//     the execution backend, the clean-prefix frontier, the evaluations
//     (one per noisy (point, trial) for a sweep, a single one for
//     Evaluate), each job's injector and probe reference, and the
//     checkpoint section. sweepJob lays out a scoped sweep together with
//     the SweepJob that describes it to a fleet.
//   - windowJobs evaluates every (evaluation, batch) job of one batch
//     window into integer correct-counts.
//   - fold resumes from the checkpointed prefix, takes windows from a
//     source in any order, folds them in ascending batch order and
//     checkpoints each contiguous prefix. The sources are this process's
//     worker pool (runLocal) and, for sweeps, a remote Fleet
//     (fleetSource). fold is the only reader and writer of checkpoint
//     state: every analysis step above it re-derives its result from
//     the folded counts.
//
// Three accelerations apply inside a window:
//
//  1. Clean-prefix activation caching. Noise is injected only at the
//     sites selected by the sweep's filter, so every layer before the
//     first active site (the injection frontier) produces bit-identical
//     clean activations at every sweep point and trial. The engine
//     computes each batch's clean activation up to the frontier once and
//     replays only the suffix per evaluation. For late frontiers
//     (ClassCaps-targeted layer sweeps, the softmax / logits-update
//     groups) this skips the bulk of the forward pass.
//  2. Deterministic parallel evaluation. Work is scheduled as
//     independent (evaluation × batch) jobs over a GOMAXPROCS-aware
//     worker pool (Options.Workers). Each job draws its noise from a
//     counter-seeded RNG stream derived from (Options.Seed, sweep-call
//     counter, point, trial, batch index) via noise.StreamSeed, so
//     results are bit-identical for any worker count and any scheduling
//     order.
//  3. Scratch-arena reuse. Each worker owns a tensor.Scratch, so the
//     im2col / product / routing temporaries of repeated suffix forwards
//     recycle instead of churning the garbage collector.
//
// Each window source fixes its window's shape. runLocal evaluates the
// remaining batches as one window, so a fold from batch 0 computes the
// whole evaluation set's frontier activations once and retains them on
// the Analyzer for back-to-back folds sharing a frontier (e.g. the
// softmax and logits-update group sweeps). A fleet leases one batch per
// window, and each leased window re-derives its own prefix.
//
// The engine is fault-tolerant: a panic inside a worker is recovered and
// surfaced as a *JobPanicError naming the fold's section and the failing
// job, cancellation via context stops dispatch at a batch boundary
// (in-flight jobs drain), and when the Analyzer carries a
// checkpoint.Store each folded window persists the per-evaluation
// correct-counts so a restarted run resumes bit-identically where it
// left off.

// prefixCache retains the clean activations at one frontier for the whole
// evaluation set, one tensor per batch. base names the producing
// backend's exact baseline (ExactBaseline().Name()): backends sharing a
// baseline produce bit-identical prefixes, so a cache keyed (frontier,
// base) is shared across designs with the same exact arithmetic (e.g.
// every 8-bit quantized design), but never across arithmetic families
// (float vs quant-exact-8).
type prefixCache struct {
	frontier int
	base     string
	acts     []*tensor.Tensor
}

// JobPanicError reports a panic recovered inside an engine worker,
// carrying the fold's checkpoint section ("" for an unnamed evaluation)
// and the coordinates of the failing job. Point indexes Options.NMSweep;
// Point and Trial are -1 for jobs outside the noise grid: clean-prefix
// jobs (Prefix set) and single evaluations.
type JobPanicError struct {
	Section string
	Point   int
	NM      float64
	Trial   int
	Batch   int
	Prefix  bool
	// Value is the recovered panic value; Stack the worker's stack at
	// the point of the panic.
	Value any
	Stack []byte
}

// Error implements error.
func (e *JobPanicError) Error() string {
	scope := "unnamed evaluation"
	if e.Section != "" {
		scope = fmt.Sprintf("section %q", e.Section)
	}
	switch {
	case e.Prefix:
		return fmt.Sprintf("%s: worker panic computing clean prefix of batch %d: %v", scope, e.Batch, e.Value)
	case e.Point >= 0:
		return fmt.Sprintf("%s: worker panic at point=%d (NM=%g) trial=%d batch=%d: %v",
			scope, e.Point, e.NM, e.Trial, e.Batch, e.Value)
	}
	return fmt.Sprintf("%s: worker panic at batch=%d: %v", scope, e.Batch, e.Value)
}

// workerPanic is runJobs' internal panic capture; callers translate the
// flat job index into domain coordinates.
type workerPanic struct {
	Job   int
	Value any
	Stack []byte
}

func (e *workerPanic) Error() string {
	return fmt.Sprintf("worker panic on job %d: %v", e.Job, e.Value)
}

// runJobs executes fn(j) for j in [0, jobs) on up to `workers`
// goroutines, handing each worker a private scratch arena. fn must write
// only to its own job's result slot; under that contract the outcome is
// independent of scheduling.
//
// The pool is panic-safe and cancellable: a panic inside fn is recovered
// and returned as a *workerPanic (first one wins; later jobs stop being
// dispatched), and when ctx is cancelled dispatch stops at the next job
// boundary while in-flight jobs drain, returning ctx.Err(). Partial
// results are therefore incomplete whenever runJobs returns non-nil —
// callers must discard them.
//
// With a non-nil o, each worker's busy time (wall time spent inside fn)
// and its scratch arena's traffic are folded into the worker-pool gauges
// after the pool drains; with a nil o the loop is untouched.
func runJobs(ctx context.Context, o *obs.Obs, workers, jobs int, fn func(j int, s *tensor.Scratch)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = max(1, min(workers, jobs))
	m := o.Metrics()
	var start time.Time
	var busy []time.Duration
	if m != nil {
		start = time.Now()
		busy = make([]time.Duration, workers)
	}

	var failed atomic.Bool
	var failMu sync.Mutex
	var fail *workerPanic
	record := func(j int, v any, stack []byte) {
		failMu.Lock()
		if fail == nil {
			fail = &workerPanic{Job: j, Value: v, Stack: stack}
		}
		failMu.Unlock()
		failed.Store(true)
	}

	scratches := make([]*tensor.Scratch, workers)
	runOn := func(w, j int, s *tensor.Scratch) {
		if m != nil {
			t0 := time.Now()
			defer func() { busy[w] += time.Since(t0) }()
		}
		defer func() {
			if v := recover(); v != nil {
				record(j, v, debug.Stack())
			}
		}()
		fn(j, s)
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tensor.NewScratch()
			scratches[w] = s
			for j := range ch {
				runOn(w, j, s)
			}
		}(w)
	}
	var cancelErr error
dispatch:
	for j := 0; j < jobs; j++ {
		if failed.Load() {
			break
		}
		select {
		case ch <- j:
		case <-ctx.Done():
			cancelErr = ctx.Err()
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	if m != nil {
		wall := time.Since(start)
		var total time.Duration
		for _, b := range busy {
			total += b
		}
		m.Gauge("sweep.workers.busy_ns").Add(float64(total))
		m.Gauge("sweep.workers.wall_ns").Add(float64(wall))
		m.Gauge("sweep.workers.count").Set(float64(workers))
		if wall > 0 && workers > 0 {
			m.Gauge("sweep.workers.utilization").Set(float64(total) / (float64(wall) * float64(workers)))
		}
		var st tensor.ScratchStats
		for _, s := range scratches {
			st = st.Plus(s.Stats())
		}
		m.Gauge("tensor.scratch.takes").Add(float64(st.Takes))
		m.Gauge("tensor.scratch.reuses").Add(float64(st.Reuses))
		m.Gauge("tensor.scratch.allocs").Add(float64(st.Allocs))
		m.Gauge("tensor.scratch.alloc_bytes").Add(float64(st.AllocBytes))
	}
	if fail != nil {
		return fail
	}
	return cancelErr
}

// prefixActivations returns the clean activations at p's frontier for
// batches [b0, b1), computed under p's backend. When the window spans the
// whole evaluation set the result is retained on the Analyzer and reused
// by subsequent folds with the same frontier and backend baseline.
// frontier == 0 returns zero-copy views of the inputs.
func (a *Analyzer) prefixActivations(ctx context.Context, p *plan, b0, b1 int) ([]*tensor.Tensor, error) {
	sample := p.x.Len() / p.n
	batch := a.Opts.Batch
	view := func(bi int) *tensor.Tensor {
		lo := bi * batch
		hi := min(lo+batch, p.n)
		shape := append([]int{hi - lo}, p.x.Shape[1:]...)
		return tensor.NewFrom(p.x.Data[lo*sample:hi*sample], shape...)
	}

	acts := make([]*tensor.Tensor, b1-b0)
	if p.frontier == 0 {
		a.Obs.Counter("sweep.prefix_cache.bypass").Inc()
		for bi := b0; bi < b1; bi++ {
			acts[bi-b0] = view(bi)
		}
		return acts, nil
	}
	whole := b0 == 0 && b1 == p.nb
	base := p.be.ExactBaseline().Name()
	if whole && a.pcache != nil && a.pcache.frontier == p.frontier && a.pcache.base == base {
		a.Obs.Counter("sweep.prefix_cache.hits").Inc()
		return a.pcache.acts, nil
	}
	a.Obs.Counter("sweep.prefix_cache.misses").Inc()
	err := runJobs(ctx, a.Obs, a.Opts.Workers, b1-b0, func(j int, _ *tensor.Scratch) {
		acts[j] = a.Net.ForwardToExec(p.frontier, view(b0+j), noise.None{}, p.be)
	})
	if err != nil {
		var wp *workerPanic
		if errors.As(err, &wp) {
			return nil, &JobPanicError{Section: p.key, Point: -1, Trial: -1, Batch: b0 + wp.Job, Prefix: true, Value: wp.Value, Stack: wp.Stack}
		}
		return nil, err
	}
	if whole {
		a.pcache = &prefixCache{frontier: p.frontier, base: base, acts: acts}
		var bytes int64
		for _, t := range acts {
			bytes += 8 * int64(len(t.Data))
		}
		a.Obs.Gauge("sweep.prefix_cache.retained_bytes").Set(float64(bytes))
		a.Obs.Debug("prefix cache retained",
			obs.F("frontier", p.frontier), obs.F("batches", len(acts)), obs.F("bytes", bytes))
	}
	return acts, nil
}

// Sweep measures accuracy across the NM grid with noise at the sites
// scope names. seedBase namespaces the sweep's RNG streams; reuse the same
// value to reproduce a sweep bit-for-bit, regardless of Options.Workers
// or of where its windows run. The sweep is one plan, probe-labelled by
// its scope and folded through a.Fleet when the analyzer has one, on this
// process's worker pool otherwise. Cancelling ctx stops the sweep at a
// job boundary with ctx's error; a worker panic surfaces as a
// *JobPanicError naming the failing (point, trial, batch) job.
//
// With a non-nil a.Checkpoint, the per-(point, trial) correct-counts
// persist under the section "sweep-<seedBase>" as windows fold; a later
// call with the same options returns finished counts without evaluating
// and resumes a partial section after its folded prefix, whichever
// source wrote it. Either way the points are bit-identical, because
// every job's noise is a pure function of (seed, seedBase, point, trial,
// batch).
func (a *Analyzer) Sweep(ctx context.Context, scope SweepScope, clean float64, seedBase uint64) ([]SweepPoint, error) {
	p, job, err := a.sweepJob(scope, seedBase)
	if err != nil {
		return nil, err
	}
	var src windowSource = a.runLocal
	if a.Fleet != nil {
		src = a.fleetSource(job)
	}
	correct, err := a.fold(ctx, p, src)
	if err != nil {
		return nil, err
	}
	return assemblePoints(a.Opts, correct, clean, p.n), nil
}

// Evaluate measures test accuracy under backend be (nil = float) and
// injector inj (nil = noiseless) as a one-evaluation fold of the engine:
// batches run as independent jobs over the worker pool, batch i under
// inj.Split(i), so the result is bit-identical for any worker count or
// window layout. A noiseless evaluation computes the exact prefix before
// be's first approximate layer once and replays it; a noisy one replays
// no prefix, since inj may act at any site. Cancellation stops at a job
// boundary with ctx's error, and a worker panic surfaces as a
// *JobPanicError naming the batch. A named section checkpoints the
// counts — distinct evaluations must use distinct sections — and, with
// probes on, records them; an unnamed evaluation ("") does neither.
func (a *Analyzer) Evaluate(ctx context.Context, be caps.Backend, inj noise.Splitter, section string) (float64, error) {
	p, err := a.evalPlan(section, be, inj)
	if err != nil {
		return 0, err
	}
	return a.foldAccuracy(ctx, p)
}

// foldAccuracy folds a single-evaluation plan into an accuracy.
func (a *Analyzer) foldAccuracy(ctx context.Context, p *plan) (float64, error) {
	if p.n == 0 {
		return 0, nil
	}
	correct, err := a.fold(ctx, p, a.runLocal)
	if err != nil {
		return 0, err
	}
	return float64(correct[0]) / float64(p.n), nil
}

// sweepState is the checkpointed progress of one fold: the per-evaluation
// correct-counts summed over the first BatchesDone batches.
type sweepState struct {
	Correct     []int `json:"correct"`
	BatchesDone int   `json:"batches_done"`
	Done        bool  `json:"done"`
}

// plan lays out one fold. A sweep plan has a site filter and one
// evaluation per noisy (point, trial); an evaluation plan has no filter
// and a single evaluation under an optional splittable injector.
type plan struct {
	key      string       // checkpoint section; "" for an unnamed evaluation
	label    string       // probe record label
	be       caps.Backend // execution backend
	ref      caps.Backend // probe reference backend; nil skips the reference pass
	filter   noise.Filter
	inj      noise.Splitter // an evaluation's injector; nil is noiseless
	seedBase uint64
	frontier int
	evals    []evalIdx
	nms      []float64 // NM of each point index, for probe records
	x        *tensor.Tensor
	y        []int
	n, nb    int
	// persist and probe turn on checkpointing and probe recording; both
	// are off for an unnamed evaluation.
	persist, probe bool
}

// newPlan normalizes the options and lays out the part of a fold under
// key that every plan shares: the execution backend and the evaluation
// split.
func (a *Analyzer) newPlan(key string, be caps.Backend) (*plan, error) {
	a.Opts = a.Opts.WithDefaults()
	o := a.Opts
	if _, err := o.Noise.Normalize(); err != nil {
		return nil, err
	}
	// The analyzer's softmax/squash variants apply to every evaluation, so
	// a design measured under an approximate nonlinearity is compared
	// against sweeps run under the same one.
	be, err := a.execBackend(be)
	if err != nil {
		return nil, err
	}
	p := &plan{key: key, be: be, persist: a.Checkpoint != nil && key != "", probe: a.Probes != nil && key != ""}
	p.x, p.y = a.evalData()
	p.n = p.x.Shape[0]
	p.nb = (p.n + o.Batch - 1) / o.Batch
	return p, nil
}

// sweepPlan lays out the float sweep of filter under seedBase,
// checkpointed and probe-labelled as "sweep-<seedBase>".
func (a *Analyzer) sweepPlan(filter noise.Filter, seedBase uint64) (*plan, error) {
	p, err := a.newPlan(fmt.Sprintf("sweep-%d", seedBase), caps.Float{})
	if err != nil {
		return nil, err
	}
	p.label, p.filter, p.seedBase = p.key, filter, seedBase
	// A non-exact nonlinearity perturbs every routing layer, so the clean
	// prefix must also stop before the first affected one.
	p.frontier = min(a.Net.InjectionFrontier(filter), a.Net.BackendFrontier(p.be))
	p.evals, p.nms, p.ref = sweepEvals(a.Opts), a.Opts.NMSweep, p.be
	return p, nil
}

// evalPlan lays out the single evaluation of be under inj.
func (a *Analyzer) evalPlan(key string, be caps.Backend, inj noise.Splitter) (*plan, error) {
	if be == nil {
		be = caps.Float{}
	}
	p, err := a.newPlan(key, be)
	if err != nil {
		return nil, err
	}
	p.label, p.inj = "backend/"+p.be.Name(), inj
	p.evals, p.nms = []evalIdx{{}}, []float64{0}
	p.frontier = a.Net.BackendFrontier(p.be)
	if inj != nil {
		p.frontier = 0
	}
	if p.probe {
		// Probes measure SQNR against the backend's exact baseline (a
		// backend that is its own baseline records ranges, moments and
		// overflow only) and bypass the prefix replay, so every layer's
		// MAC outputs cross the probe seam, not just the suffix after the
		// first approximate site.
		p.frontier = 0
		if ref := p.be.ExactBaseline(); ref.Name() != p.be.Name() {
			p.ref = ref
		}
	}
	return p, nil
}

// evalIdx names one (point, trial) evaluation of a sweep; NM = 0 is the
// clean point and is never enumerated.
type evalIdx struct{ pi, trial int }

// sweepEvals enumerates the (point, trial) evaluations of one sweep in
// the canonical order every fold assumes: ascending point index, then
// ascending trial.
func sweepEvals(o Options) []evalIdx {
	var evals []evalIdx
	for pi, nm := range o.NMSweep {
		if nm == 0 {
			continue
		}
		for trial := 0; trial < o.Trials; trial++ {
			evals = append(evals, evalIdx{pi, trial})
		}
	}
	return evals
}

// windowJobs evaluates every (evaluation, batch) job of the batch window
// [b0, b1): the per-job correct counts (eval-major, batch-minor) plus,
// when probing, each job's per-layer probe stats. This is the one code
// path that turns a window into counts — local sweeps, backend
// evaluations and the worker-side EvalWindow all call it, which is what
// makes a leased window's counts bit-identical to the in-process ones.
func (a *Analyzer) windowJobs(ctx context.Context, p *plan, b0, b1 int, probing bool) ([]int, [][]caps.ProbeLayerStats, error) {
	o := a.Opts
	acts, err := a.prefixActivations(ctx, p, b0, b1)
	if err != nil {
		return nil, nil, err
	}
	// One job per (evaluation, batch); each job owns its result slots.
	nbw := b1 - b0
	jobCorrect := make([]int, len(p.evals)*nbw)
	var jobProbes [][]caps.ProbeLayerStats
	if probing {
		jobProbes = make([][]caps.ProbeLayerStats, len(jobCorrect))
	}
	err = runJobs(ctx, a.Obs, o.Workers, len(jobCorrect), func(j int, s *tensor.Scratch) {
		e, bi := p.evals[j/nbw], b0+j%nbw
		var inj noise.Injector = noise.None{}
		switch {
		case p.filter != nil:
			seed := noise.StreamSeed(o.Seed, p.seedBase, uint64(e.pi), uint64(e.trial), uint64(bi))
			inj = o.Noise.Injector(o.NMSweep[e.pi], o.NA, p.filter, seed)
		case p.inj != nil:
			inj = p.inj.Split(uint64(bi))
		}
		be := p.be
		var rec *caps.ProbeRecorder
		if probing {
			// Reference pass, recorded at the Backend seam. noise.None
			// draws nothing from inj, and the kernels write scratch
			// buffers before reading them, so the extra pass cannot
			// perturb the result pass below.
			rec = caps.NewProbeRecorder()
			if p.ref != nil {
				rec.StartReference()
				a.Net.ClassifyFromExec(p.frontier, acts[bi-b0], noise.None{}, s, caps.NewProbeBackend(p.ref, rec))
			}
			rec.StartObserve()
			be = caps.NewProbeBackend(p.be, rec)
		}
		pred := a.Net.ClassifyFromExec(p.frontier, acts[bi-b0], inj, s, be)
		lo := bi * o.Batch
		c := 0
		for i, pr := range pred {
			if pr == p.y[lo+i] {
				c++
			}
		}
		jobCorrect[j] = c
		if rec != nil {
			jobProbes[j] = rec.Layers()
		}
	})
	if err != nil {
		var wp *workerPanic
		if errors.As(err, &wp) {
			jp := &JobPanicError{Section: p.key, Point: -1, Trial: -1, Batch: b0 + wp.Job%nbw, Value: wp.Value, Stack: wp.Stack}
			if p.filter != nil {
				e := p.evals[wp.Job/nbw]
				jp.Point, jp.NM, jp.Trial = e.pi, o.NMSweep[e.pi], e.trial
			}
			return nil, nil, jp
		}
		return nil, nil, err
	}
	return jobCorrect, jobProbes, nil
}

// windowSums folds a window's per-job counts (eval-major over nbw
// batches) into per-evaluation counts — the form a WindowResult carries.
func windowSums(jobCorrect []int, evals, nbw int) []int {
	out := make([]int, evals)
	for j, c := range jobCorrect {
		out[j/nbw] += c
	}
	return out
}

// windowSource feeds a fold: it produces every window of [start, p.nb),
// each exactly once and in any order, handing each to emit with its
// per-evaluation counts and — for windows evaluated here with probes on —
// its per-job probe stats. It returns early with an error on failure or
// cancellation.
type windowSource func(ctx context.Context, p *plan, start int, emit func(WindowResult, [][]caps.ProbeLayerStats)) error

// runLocal is the in-process window source: it evaluates the remaining
// batches [start, p.nb) as one window on this process's worker pool
// (a.windowBatches splits it for tests). A window spanning the whole
// split fills the prefix cache for the next fold.
func (a *Analyzer) runLocal(ctx context.Context, p *plan, start int, emit func(WindowResult, [][]caps.ProbeLayerStats)) error {
	window := p.nb - start
	if a.windowBatches > 0 {
		window = a.windowBatches
	}
	for b0 := start; b0 < p.nb; b0 += window {
		if err := ctx.Err(); err != nil {
			return err
		}
		b1 := min(b0+window, p.nb)
		tw0 := time.Now()
		jobCorrect, jobProbes, err := a.windowJobs(ctx, p, b0, b1, p.probe)
		if err != nil {
			return err
		}
		if p.filter != nil {
			// Per-job counts are integers, so the histogram's buckets and
			// sum do not depend on scheduling.
			a.Obs.Counter("sweep.jobs").Add(int64(len(jobCorrect)))
			hist := a.Obs.Histogram("sweep.job_correct")
			for _, c := range jobCorrect {
				hist.Observe(float64(c))
			}
			if tr := a.Obs.Trace(); tr != nil {
				tr.Complete("sweep.window", "sweep", 0, tw0, time.Since(tw0),
					map[string]any{"sweep": p.key, "batches": fmt.Sprintf("%d-%d/%d", b0, b1, p.nb), "jobs": len(jobCorrect)})
			}
		}
		emit(WindowResult{B0: b0, B1: b1, Correct: windowSums(jobCorrect, len(p.evals), b1-b0)}, jobProbes)
	}
	return nil
}

// resume loads p's checkpointed prefix into correct and returns the first
// batch still to run. A section no run could have written — wrong length,
// a done flag that disagrees with batches_done, or a count outside
// [0, min(batches_done·batch, n)], the bound fleet completions must also
// meet — is ignored with a warning, and the fold starts over.
func (a *Analyzer) resume(p *plan, correct []int) int {
	var st sweepState
	if !p.persist || !a.Checkpoint.Get(p.key, &st) {
		return 0
	}
	ok := len(st.Correct) == len(p.evals) && st.BatchesDone >= 0 && st.BatchesDone <= p.nb &&
		st.Done == (st.BatchesDone == p.nb)
	bound := min(st.BatchesDone*a.Opts.Batch, p.n)
	for _, c := range st.Correct {
		ok = ok && c >= 0 && c <= bound
	}
	if !ok {
		a.Obs.Warn("ignoring impossible checkpoint section; starting over", obs.F("section", p.key))
		return 0
	}
	copy(correct, st.Correct)
	skipped := st.BatchesDone * len(p.evals)
	if p.filter != nil {
		a.Obs.Counter("sweep.resumed_jobs").Add(int64(skipped))
	}
	a.Obs.Info("resumed from checkpoint", obs.F("section", p.key),
		obs.F("batches", fmt.Sprintf("%d/%d", st.BatchesDone, p.nb)), obs.F("skipped_jobs", skipped))
	if p.probe && st.BatchesDone > 0 {
		// Probe stats are never checkpointed, so they can only cover the
		// windows this process actually runs.
		a.Obs.Warn("probe stats cover only the un-resumed windows",
			obs.F("section", p.key), obs.F("skipped_batches", st.BatchesDone))
	}
	return st.BatchesDone
}

// fold runs plan p to completion and returns its per-evaluation correct
// counts summed over every batch. It resumes from the checkpointed
// prefix, takes the remaining windows from run in any order, folds them
// in ascending batch order and checkpoints each contiguous prefix — so a
// local run and a fleet run write the same checkpoint bytes and resume
// each other's. A cancellation or a short delivery is an error; the
// checkpoint keeps the folded prefix either way.
func (a *Analyzer) fold(ctx context.Context, p *plan, run windowSource) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	correct := make([]int, len(p.evals))
	start := a.resume(p, correct)
	if p.filter != nil {
		a.Obs.Counter("sweep.sweeps").Inc()
	}
	// Probe stats sum floats, so their grouping changes result bits: each
	// job's stats are buffered and merged at the end in one order over the
	// whole fold, which keeps them independent of the window layout.
	var stats [][]caps.ProbeLayerStats
	if p.probe {
		stats = make([][]caps.ProbeLayerStats, len(p.evals)*p.nb)
	}
	t0 := time.Now()
	next := start
	pending := map[int]WindowResult{}
	emit := func(w WindowResult, jobProbes [][]caps.ProbeLayerStats) {
		nbw := w.B1 - w.B0
		for j, st := range jobProbes {
			stats[j/nbw*p.nb+w.B0+j%nbw] = st
		}
		pending[w.B0] = w
		for r, ok := pending[next]; ok; r, ok = pending[next] {
			delete(pending, next)
			for i, c := range r.Correct {
				correct[i] += c
			}
			next = r.B1
			if p.persist {
				// A failed write degrades to a warning: the run continues,
				// it just cannot resume from this window.
				st := sweepState{Correct: correct, BatchesDone: next, Done: next == p.nb}
				put := time.Now()
				err := a.Checkpoint.Put(p.key, st)
				a.Obs.Timer("sweep.checkpoint_write").Observe(time.Since(put))
				if err != nil {
					a.Obs.Warn("checkpoint write failed", obs.F("section", p.key), obs.F("err", err))
				}
			}
			if a.afterWindow != nil {
				a.afterWindow(next, p.nb)
			}
			if a.Obs.Enabled(obs.Debug) && next > start && next < p.nb {
				eta := time.Since(t0) / time.Duration(next-start) * time.Duration(p.nb-next)
				a.Obs.Debug("fold progress", obs.F("section", p.key),
					obs.F("batches", fmt.Sprintf("%d/%d", next, p.nb)), obs.F("eta", eta.Round(time.Second)))
			}
		}
	}
	if start < p.nb {
		err := run(ctx, p, start, emit)
		if err == nil && next < p.nb {
			if err = ctx.Err(); err == nil {
				err = fmt.Errorf("%s incomplete: %d/%d batches folded", p.key, next, p.nb)
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				a.Obs.Warn("fold cancelled", obs.F("section", p.key), obs.F("batches", fmt.Sprintf("%d/%d", next, p.nb)))
			}
			return nil, err
		}
	}
	if p.filter != nil {
		dur := time.Since(t0)
		a.Obs.Timer("sweep.duration").Observe(dur)
		if jobs := (p.nb - start) * len(p.evals); jobs > 0 {
			a.Obs.Gauge("sweep.last_jobs_per_sec").Set(float64(jobs) / dur.Seconds())
		}
		a.Obs.Debug("sweep complete", obs.F("section", p.key), obs.F("frontier", p.frontier),
			obs.F("batches", p.nb-start), obs.F("dur", dur.Round(time.Millisecond)))
	}
	if p.probe {
		a.recordProbes(p, stats)
	}
	return correct, nil
}

// assemblePoints turns the folded per-(point, trial) correct counts into
// the sweep's points.
func assemblePoints(o Options, correct []int, clean float64, n int) []SweepPoint {
	points := make([]SweepPoint, len(o.NMSweep))
	ei := 0
	for pi, nm := range o.NMSweep {
		acc := clean
		if nm != 0 {
			total := 0
			for trial := 0; trial < o.Trials; trial++ {
				total += correct[ei]
				ei++
			}
			acc = float64(total) / float64(o.Trials*n)
		}
		points[pi] = SweepPoint{NM: nm, Accuracy: acc, Drop: acc - clean}
	}
	return points
}
