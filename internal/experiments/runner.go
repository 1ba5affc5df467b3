// Package experiments regenerates every table and figure of the ReD-CaNe
// paper's evaluation (Tables I–IV, Figs. 4–6 and 9–12), plus the ablation
// studies listed in DESIGN.md, against the pure-Go CapsNet stack and the
// synthetic benchmark datasets. Each experiment returns a structured
// result with a Render method producing the text form recorded in
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/obs"
	"redcane/internal/params"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// Config controls dataset sizes, training effort and evaluation depth.
type Config struct {
	// Dir caches trained weights (and, with Checkpoint set, analysis
	// checkpoints) between runs ("" disables caching).
	Dir string
	// Quick shrinks datasets, epochs and evaluation sizes so the whole
	// suite runs in CI/benchmark time budgets.
	Quick bool
	// Seed drives dataset synthesis, weight init and noise.
	Seed uint64
	// Obs, when non-nil, receives the runner's telemetry: structured
	// progress events (training phases, sweep stages with rates and ETAs)
	// and the engine/per-layer metrics. Telemetry never alters results.
	Obs *obs.Obs
	// Probes, when non-nil, records per-layer numeric-health statistics
	// (core.ProbeSet) for every sweep and backend evaluation the runner
	// performs. Probing never alters results or checkpoints; it roughly
	// doubles evaluation cost.
	Probes *core.ProbeSet
	// Workers bounds the sweep engine's evaluation goroutines
	// (0 = runtime.GOMAXPROCS(0)); results are identical for any value.
	Workers int
	// Ctx, when non-nil, cancels long-running work (training epochs,
	// resilience sweeps, refinement rounds) at the next batch boundary.
	// A nil Ctx means run to completion (context.Background()).
	Ctx context.Context
	// Checkpoint persists completed analysis work (sweep windows,
	// finished methodology steps) under Dir, keyed by (benchmark, seed,
	// options fingerprint), so an interrupted design/refine/experiment
	// run resumes bit-identically. Requires Dir (or CheckpointDir);
	// cancellation works without it, resume does not.
	Checkpoint bool
	// CheckpointDir, when set, overrides where analysis checkpoints are
	// written while the weight cache stays under Dir. The analysis
	// service keys each job's checkpoints by its job directory so
	// concurrent jobs with identical (benchmark, seed, options) never
	// share — or clobber — a checkpoint file.
	CheckpointDir string
	// TrainMu, when non-nil, serializes Trained across runners sharing a
	// weight-cache Dir (the analysis service's concurrent jobs): only
	// one runner at a time trains or loads, so two jobs never race to
	// write the same cache file or redundantly train the same benchmark.
	TrainMu *sync.Mutex
	// Fleet, when non-nil, distributes the group/layer sweeps of the
	// sweep and methodology entry points to remote workers instead of the
	// local pool (core.Analyzer.Fleet). Results are byte-identical either
	// way; a nil Fleet keeps everything in-process.
	Fleet core.Fleet
	// Softmax and Squash select the nonlinearity variants every analysis
	// entry point evaluates under ("" or "exact" keeps the bit-exact
	// operators; see approx.SoftmaxNames / approx.SquashNames). Non-default
	// variants fold into checkpoint fingerprints, so approximate and exact
	// runs never share a resume state.
	Softmax string
	Squash  string
}

// Benchmark is one (architecture, dataset) pair of the paper's Table II.
type Benchmark struct {
	Arch    string // "deepcaps" or "capsnet"
	Dataset string // "cifar-like", "svhn-like", "mnist-like", "fashion-like"
	// PaperAccuracy is the paper's Table II reference, for reporting.
	PaperAccuracy float64
}

// Key is the cache identity of the benchmark.
func (b Benchmark) Key() string { return b.Arch + "-" + b.Dataset }

// Benchmarks lists the five pairs evaluated in the paper, in Table II
// order.
var Benchmarks = []Benchmark{
	{Arch: "deepcaps", Dataset: "cifar-like", PaperAccuracy: 92.74},
	{Arch: "deepcaps", Dataset: "svhn-like", PaperAccuracy: 97.56},
	{Arch: "deepcaps", Dataset: "mnist-like", PaperAccuracy: 99.72},
	{Arch: "capsnet", Dataset: "fashion-like", PaperAccuracy: 92.88},
	{Arch: "capsnet", Dataset: "mnist-like", PaperAccuracy: 99.67},
}

// DefaultBenchmark is the benchmark used when a job or CLI command names
// none: CapsNet on the MNIST-like dataset, the fastest of the paper's
// benchmarks. Resolved by key at init, not by slice index, so reordering
// or extending Benchmarks can never silently change the default.
var DefaultBenchmark = mustBenchmark("capsnet-mnist-like")

// CaseStudyBenchmark is the paper's detailed case study: DeepCaps on the
// CIFAR-like dataset, the network behind Table III, Figs. 9–11 and the
// ablations of DeepCaps' routing layers. Resolved by key, like
// DefaultBenchmark.
var CaseStudyBenchmark = mustBenchmark("deepcaps-cifar-like")

func mustBenchmark(key string) Benchmark {
	b, err := FindBenchmark(key)
	if err != nil {
		panic(err)
	}
	return b
}

// BenchmarkKeys lists the benchmark keys in Table II order.
func BenchmarkKeys() []string {
	keys := make([]string, len(Benchmarks))
	for i, b := range Benchmarks {
		keys[i] = b.Key()
	}
	return keys
}

// FindBenchmark resolves a benchmark key case-insensitively. An unknown
// key errors naming every valid one, so a typo at the CLI or in a job
// submission is diagnosable without a round-trip through 'redcane list'.
func FindBenchmark(key string) (Benchmark, error) {
	for _, b := range Benchmarks {
		if strings.EqualFold(b.Key(), key) {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("experiments: unknown benchmark %q (valid: %s)",
		key, strings.Join(BenchmarkKeys(), ", "))
}

// Trained is a ready-to-analyze benchmark: inference network with trained
// weights plus its dataset.
type Trained struct {
	Benchmark Benchmark
	Net       *caps.Network
	Data      *datasets.Dataset
	TestAcc   float64
}

// Runner builds and caches trained benchmarks and exposes the experiment
// generators.
type Runner struct {
	Cfg       Config
	cache     map[string]*Trained
	fig11Memo *Fig11Result
}

// NewRunner returns a Runner for the given config.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, cache: map[string]*Trained{}}
}

// obs returns the runner's telemetry handle (nil-safe everywhere).
func (r *Runner) obs() *obs.Obs { return r.Cfg.Obs }

// ctx returns the runner's cancellation context (never nil).
func (r *Runner) ctx() context.Context {
	if r.Cfg.Ctx != nil {
		return r.Cfg.Ctx
	}
	return context.Background()
}

// mode is the cache-key suffix distinguishing quick from full runs.
func (r *Runner) mode() string {
	if r.Cfg.Quick {
		return "quick"
	}
	return "full"
}

// analysisCheckpoint opens (or resumes) the on-disk checkpoint store for
// one benchmark's analysis, keyed by (benchmark+mode, seed, options
// fingerprint) under CheckpointDir (falling back to Dir). Returns nil
// when checkpointing is off or no directory is configured; open failures
// degrade to no checkpointing with a warning, never an aborted run.
func (r *Runner) analysisCheckpoint(b Benchmark, opts core.Options) *checkpoint.Store {
	dir := r.Cfg.CheckpointDir
	if dir == "" {
		dir = r.Cfg.Dir
	}
	if !r.Cfg.Checkpoint || dir == "" {
		return nil
	}
	name := b.Key() + "-" + r.mode()
	st, resumed, err := checkpoint.Open(dir, name, r.Cfg.Seed, opts.Fingerprint())
	if err != nil {
		r.obs().Warn("checkpoint open failed; continuing without resume",
			obs.F("benchmark", name), obs.F("err", err))
	}
	if st == nil {
		return nil
	}
	if resumed {
		r.obs().Info("resuming analysis from checkpoint",
			obs.F("benchmark", name), obs.F("path", st.Path()))
	}
	return st
}

func (r *Runner) splitSizes() (trainN, testN int) {
	if r.Cfg.Quick {
		return 500, 150
	}
	return 1500, 400
}

func (r *Runner) epochs(arch string) int {
	if arch == "deepcaps" {
		if r.Cfg.Quick {
			return 3
		}
		return 4
	}
	if r.Cfg.Quick {
		return 2
	}
	return 3
}

// evalCap bounds how many test samples a resilience sweep point uses.
func (r *Runner) evalCap() int {
	if r.Cfg.Quick {
		return 60
	}
	return 200
}

// threshold is the tolerable accuracy drop used to mark resilience; the
// quick mode widens it because its small evaluation split quantizes
// accuracy coarsely.
func (r *Runner) threshold() float64 {
	if r.Cfg.Quick {
		return 0.02
	}
	return 0.01
}

// analyzer builds the analyzer an analysis entry point runs on b: the
// trained network, the runner's telemetry, probes and fleet, and a
// checkpoint keyed by the final options. Every entry point builds through
// here, so one Config (evaluation depth, softmax/squash variants) applies
// to all of them. base holds the entry point's own options: its Seed is
// an offset from the master seed (fixed per entry point, since checkpoint
// fingerprints include it), its NMSweep and Noise the default grid and
// injector, and a zero Trials or MaxEval takes the runner's evaluation
// depth. ov then replaces the grid (when set) and the noise average.
func (r *Runner) analyzer(b Benchmark, base core.Options, ov Overrides) (*core.Analyzer, error) {
	t, err := r.Trained(b)
	if err != nil {
		return nil, err
	}
	opts := base
	opts.Seed += r.Cfg.Seed
	if opts.Trials == 0 {
		opts.Trials = r.trials()
	}
	if opts.MaxEval == 0 {
		opts.MaxEval = r.evalCap()
	}
	opts.Batch, opts.Threshold, opts.Workers = 32, r.threshold(), r.Cfg.Workers
	opts.Softmax, opts.Squash = r.Cfg.Softmax, r.Cfg.Squash
	if ov.NMSweep != nil {
		opts.NMSweep = ov.NMSweep
	}
	opts.NA = ov.NA
	opts = opts.WithDefaults()
	return &core.Analyzer{
		Net: t.Net, Data: t.Data, Obs: r.obs(), Opts: opts,
		Checkpoint: r.analysisCheckpoint(b, opts),
		Probes:     r.Cfg.Probes,
		Fleet:      r.Cfg.Fleet,
	}, nil
}

// ablation builds the analyzer an ablation measures b through — the
// runner's workers, cancellation and softmax/squash variants over the
// first n test samples (0 = the sweeps' cap) — and its clean accuracy.
// Its evaluations are unnamed, so they write no checkpoint or probes.
func (r *Runner) ablation(b Benchmark, n int) (*core.Analyzer, float64, error) {
	a, err := r.analyzer(b, core.Options{MaxEval: n}, Overrides{})
	if err != nil {
		return nil, 0, err
	}
	clean, err := a.Evaluate(r.ctx(), nil, nil, "")
	return a, clean, err
}

// trials is the number of noise seeds averaged per sweep point.
func (r *Runner) trials() int {
	if r.Cfg.Quick {
		return 1
	}
	return 2
}

func (r *Runner) dataset(name string) (*datasets.Dataset, error) {
	trainN, testN := r.splitSizes()
	return datasets.ByName(name, trainN, testN, r.Cfg.Seed+hashString(name))
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (r *Runner) spec(arch string, ds *datasets.Dataset) (models.Spec, error) {
	shape := []int{ds.Channels, ds.H, ds.W}
	switch arch {
	case "deepcaps":
		return models.DeepCaps(shape, ds.Classes()), nil
	case "capsnet":
		return models.CapsNet(shape, ds.Classes()), nil
	default:
		return models.Spec{}, fmt.Errorf("experiments: unknown architecture %q", arch)
	}
}

// Trained returns the trained benchmark, training it on first use and
// caching weights in memory and (when Dir is set) on disk. With a
// non-nil Cfg.TrainMu the load-or-train path runs under that lock.
func (r *Runner) Trained(b Benchmark) (*Trained, error) {
	key := b.Key()
	if t, ok := r.cache[key]; ok {
		return t, nil
	}
	if r.Cfg.TrainMu != nil {
		r.Cfg.TrainMu.Lock()
		defer r.Cfg.TrainMu.Unlock()
	}
	sp := r.obs().StartSpan("train.dataset", obs.F("dataset", b.Dataset))
	ds, err := r.dataset(b.Dataset)
	sp.End()
	if err != nil {
		return nil, err
	}
	spec, err := r.spec(b.Arch, ds)
	if err != nil {
		return nil, err
	}
	net, err := models.BuildInference(spec, r.Cfg.Seed+11)
	if err != nil {
		return nil, err
	}

	var cachePath string
	if r.Cfg.Dir != "" {
		cachePath = filepath.Join(r.Cfg.Dir, fmt.Sprintf("%s-%s-seed%d.gob", key, r.mode(), r.Cfg.Seed))
		if store, err := params.Load(cachePath); err == nil {
			if err := store.LoadInto(net.Params()); err == nil {
				r.obs().Debug("weight cache hit", obs.F("benchmark", key), obs.F("path", cachePath))
				t, err := r.finish(b, net, ds)
				if err != nil {
					return nil, err
				}
				r.cache[key] = t
				return t, nil
			} else {
				// A present-but-incompatible cache (e.g. stale layout after a
				// model change) is discarded and retrained — loudly, so users
				// know why the run is slow and can delete the file.
				r.obs().Warn("weight cache present but unusable; retraining",
					obs.F("benchmark", key), obs.F("path", cachePath), obs.F("err", err))
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			// Same for a file that exists but cannot even be decoded.
			r.obs().Warn("weight cache present but unusable; retraining",
				obs.F("benchmark", key), obs.F("path", cachePath), obs.F("err", err))
		}
	}

	r.obs().Info("training benchmark", obs.F("benchmark", key),
		obs.F("samples", ds.TrainX.Shape[0]), obs.F("epochs", r.epochs(b.Arch)))
	total := r.obs().StartSpan("train.benchmark", obs.F("benchmark", key))
	// net is trained in place. A cache that failed to load above left it
	// untouched (params.Store.LoadInto checks before it copies).
	m := train.NewModel(net)
	sz := ds.Channels * ds.H * ds.W
	calibN := 32
	if calibN > ds.TrainX.Shape[0] {
		calibN = ds.TrainX.Shape[0]
	}
	calib := tensor.NewFrom(ds.TrainX.Data[:calibN*sz], calibN, ds.Channels, ds.H, ds.W)
	sp = r.obs().StartSpan("train.lsuv", obs.F("benchmark", key))
	train.LSUVInit(m, calib, 0.5)
	sp.End()
	sp = r.obs().StartSpan("train.fit", obs.F("benchmark", key))
	_, err = train.FitCtx(r.ctx(), m, ds, train.Config{
		Epochs:    r.epochs(b.Arch),
		BatchSize: 32,
		LR:        1.5e-3,
		Seed:      r.Cfg.Seed + 1,
		GradClip:  5,
		Log:       r.obs().LineWriter(obs.Debug),
	})
	sp.End()
	if err != nil {
		// Cancelled mid-training: net's weights are partial, so it is
		// dropped and nothing is cached — a rerun builds a fresh network
		// and restarts this benchmark's training from scratch.
		return nil, fmt.Errorf("train %s: %w", key, err)
	}
	if cachePath != "" {
		// Cache write failures are non-fatal, but never silent: a broken
		// cache dir means every future run retrains from scratch.
		if err := os.MkdirAll(r.Cfg.Dir, 0o755); err != nil {
			r.obs().Warn("weight-cache dir create failed",
				obs.F("dir", r.Cfg.Dir), obs.F("err", err))
		} else if err := params.FromParams(net.Params()).Save(cachePath); err != nil {
			r.obs().Warn("weight-cache save failed",
				obs.F("path", cachePath), obs.F("err", err))
		}
	}
	t, err := r.finish(b, net, ds)
	if err != nil {
		return nil, err
	}
	total.End()
	r.obs().Info("trained benchmark", obs.F("benchmark", key),
		obs.F("test_acc", fmt.Sprintf("%.2f%%", 100*t.TestAcc)))
	r.cache[key] = t
	return t, nil
}

func (r *Runner) finish(b Benchmark, net *caps.Network, ds *datasets.Dataset) (*Trained, error) {
	net.Obs = r.obs()
	sp := r.obs().StartSpan("train.eval", obs.F("benchmark", b.Key()))
	// The trained network's own accuracy: the whole test split under the
	// exact nonlinearities, whatever variants the analyses run under.
	a := &core.Analyzer{Net: net, Data: ds, Obs: r.obs(), Opts: core.Options{Batch: 32, Workers: r.Cfg.Workers}}
	acc, err := a.Evaluate(r.ctx(), nil, nil, "")
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", b.Key(), err)
	}
	return &Trained{Benchmark: b, Net: net, Data: ds, TestAcc: acc}, nil
}
