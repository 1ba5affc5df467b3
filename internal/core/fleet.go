package core

import (
	"context"
	"fmt"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// This file is the engine's distribution seam. A sweep is a pure fold of
// integer correct-counts over (point, trial, batch) jobs whose noise is a
// counter-seeded function of (Options.Seed, seedBase, point, trial,
// batch) — no state flows between jobs — so any process that can rebuild
// the network and evaluation split can compute any batch window's counts
// bit-identically. A Fleet is the remote window source of the engine's
// one fold: it leases the sweep's batches, one per window, to such
// processes, which evaluate them through EvalWindow, and streams their
// per-(point, trial) counts back; the fold takes them in any order and
// folds them in ascending window order through the same checkpoint the
// local worker pool feeds, which is what makes an N-worker fleet's
// artifacts byte-identical to a single-process run.

// SweepScope names a sweep's site filter in wire-friendly form: the
// Table III group plus, for layer-wise sweeps, the layer. It is the
// serializable counterpart of noise.ForGroup / noise.ForLayerGroup —
// closures cannot cross a process boundary, scopes can.
type SweepScope struct {
	Group string `json:"group"`
	Layer string `json:"layer,omitempty"`
}

// ScopeForGroup names a group-wise sweep's filter.
func ScopeForGroup(g noise.Group) SweepScope {
	return SweepScope{Group: g.String()}
}

// ScopeForLayer names a layer-wise sweep's filter.
func ScopeForLayer(layer string, g noise.Group) SweepScope {
	return SweepScope{Group: g.String(), Layer: layer}
}

// Filter resolves the scope back to the site filter it names.
func (s SweepScope) Filter() (noise.Filter, error) {
	g, ok := groupByName(s.Group)
	if !ok {
		return nil, fmt.Errorf("sweep scope names unknown group %q", s.Group)
	}
	if s.Layer != "" {
		return noise.ForLayerGroup(s.Layer, g), nil
	}
	return noise.ForGroup(g), nil
}

// String renders the scope for logs and metrics labels.
func (s SweepScope) String() string {
	if s.Layer != "" {
		return s.Layer + "/" + s.Group
	}
	return s.Group
}

// probeLabel names the scope's probe record: "groups/<group>" or
// "layers/<layer>/<group>".
func (s SweepScope) probeLabel() string {
	if s.Layer != "" {
		return "layers/" + s.String()
	}
	return "groups/" + s.String()
}

// SweepJob describes one sweep for remote execution. Everything a worker
// needs to reproduce a window bit-identically travels here: the scope,
// the seed namespace, and the results-affecting options. Evals and NB are
// the coordinator's view of the evaluation grid; workers recompute both
// and refuse mismatches, which catches drift (different dataset size,
// options, or code) before a wrong count is folded.
type SweepJob struct {
	// Key is the sweep's checkpoint key ("sweep-<seedBase>"), unique
	// within one analysis.
	Key string `json:"key"`
	// SeedBase namespaces the sweep's RNG streams (noise.StreamSeed).
	SeedBase uint64     `json:"seed_base"`
	Scope    SweepScope `json:"scope"`
	Opts     Options    `json:"opts"`
	// Evals is the number of noisy (point, trial) evaluations; every
	// window result carries exactly this many counts.
	Evals int `json:"evals"`
	// NB is the total batch count of the evaluation split.
	NB int `json:"nb"`
	// Examples is the evaluation-split size, which bounds each window's
	// correct counts (the last batch is usually short of Opts.Batch); the
	// coordinator uses it to reject impossible completions.
	Examples int `json:"examples"`
}

// WindowResult is one completed batch window [B0, B1): the per-(point,
// trial) correct counts summed over the window's batches, in the
// canonical sweepEvals order.
type WindowResult struct {
	B0      int   `json:"b0"`
	B1      int   `json:"b1"`
	Correct []int `json:"correct"`
}

// Fleet distributes a sweep's batch windows to remote executors.
// RunSweep must deliver every window of [start, job.NB) exactly once, in
// any order, then close the channel; when ctx is cancelled it may close
// the channel early. The coordinator owns ordering and folding — a Fleet
// only moves windows out and counts back.
type Fleet interface {
	RunSweep(ctx context.Context, job SweepJob, start int) (<-chan WindowResult, error)
}

// EvalWindow is the worker-side entry point of distributed sweeps: it
// evaluates every (point, trial) job of the batch window [b0, b1) and
// returns the per-(point, trial) correct counts summed over the window's
// batches — the exact integers the local engine folds, computed by the
// same windowJobs path, so a fleet fold is bit-identical to a
// single-process run.
func (a *Analyzer) EvalWindow(ctx context.Context, scope SweepScope, seedBase uint64, b0, b1 int) ([]int, error) {
	filter, err := scope.Filter()
	if err != nil {
		return nil, err
	}
	p, err := a.sweepPlan(filter, seedBase)
	if err != nil {
		return nil, err
	}
	if b0 < 0 || b1 <= b0 || b1 > p.nb {
		return nil, fmt.Errorf("window [%d, %d) out of range (nb=%d)", b0, b1, p.nb)
	}
	jobCorrect, _, err := a.windowJobs(ctx, p, b0, b1, false)
	if err != nil {
		return nil, err
	}
	return windowSums(jobCorrect, len(p.evals), b1-b0), nil
}

// SweepGrid returns the coordinator's view of a sweep's work grid under
// the analyzer's options: the number of noisy (point, trial) evaluations
// and the total batch count. Workers recompute the same pair as a drift
// guard.
func (a *Analyzer) SweepGrid() (evals, nb int) {
	o := a.Opts.WithDefaults()
	x, _ := a.evalData()
	n := x.Shape[0]
	return len(sweepEvals(o)), (n + o.Batch - 1) / o.Batch
}

// sweepScoped runs one named sweep of the methodology: one plan,
// probe-labelled by its scope, folded through the fleet when the analyzer
// has one and locally otherwise. Only these sweeps can be distributed,
// because only they have wire-representable scopes. Both sources feed
// the same fold and checkpoint section, so a fleet run resumes a local
// checkpoint and vice versa.
func (a *Analyzer) sweepScoped(ctx context.Context, scope SweepScope, clean float64, seedBase uint64) ([]SweepPoint, error) {
	filter, err := scope.Filter()
	if err != nil {
		return nil, err
	}
	p, err := a.sweepPlan(filter, seedBase)
	if err != nil {
		return nil, err
	}
	p.label = scope.probeLabel()
	if a.Fleet == nil {
		return a.foldPoints(ctx, p, a.runLocal, clean)
	}
	if a.Probes != nil {
		// Probe recorders live on the workers' passes and never travel the
		// wire; a distributed sweep records no probe stats.
		a.Obs.Warn("probes are not collected over a fleet", obs.F("sweep", scope.String()))
	}
	return a.foldPoints(ctx, p, func(ctx context.Context, p *plan, start int, emit func(WindowResult, [][]caps.ProbeLayerStats)) error {
		job := SweepJob{
			Key: p.key, SeedBase: p.seedBase, Scope: scope,
			Opts: a.Opts, Evals: len(p.evals), NB: p.nb, Examples: p.n,
		}
		a.Obs.Info("sweep distributed to fleet",
			obs.F("sweep", p.key), obs.F("scope", scope.String()),
			obs.F("windows", p.nb-start), obs.F("evals", len(p.evals)))
		ch, err := a.Fleet.RunSweep(ctx, job, start)
		if err != nil {
			return err
		}
		for res := range ch {
			if len(res.Correct) != len(p.evals) {
				return fmt.Errorf("fleet window [%d, %d) returned %d counts, want %d",
					res.B0, res.B1, len(res.Correct), len(p.evals))
			}
			emit(res, nil)
		}
		return nil
	}, clean)
}
