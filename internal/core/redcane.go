// Package core implements the ReD-CaNe methodology itself (Fig. 7 of the
// paper): the six steps that turn a trained CapsNet plus a library of
// approximate components into an approximated CapsNet design —
//
//  1. Group Extraction — partition the inference operations into the
//     Table III groups by running one instrumented forward pass.
//  2. Group-Wise Resilience Analysis — sweep the noise magnitude per
//     group and monitor the test-accuracy drop.
//  3. Mark Resilient Groups — groups whose accuracy survives the largest
//     swept noise magnitude.
//  4. Layer-Wise Resilience Analysis — per-layer sweeps inside each
//     non-resilient group (skipping resilient groups saves exploration
//     time, exactly as the paper notes).
//  5. Mark Resilient Layers — per-layer tolerated noise magnitudes.
//  6. Select Approximate Components — for every operation site, the
//     cheapest library component whose measured noise magnitude fits the
//     site's tolerated budget.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"redcane/internal/approx"
	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/datasets"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// PaperNMSweep is the noise-magnitude grid of the paper's experiments
// (Sec. VI-A): NM ∈ [0.5 … 0.001] plus the noiseless point.
var PaperNMSweep = []float64{0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0}

// DefaultFaultSweep is the default severity grid for fault-model sweeps
// (bit-flip probability or stuck-cell fraction): faults at the paper's
// Gaussian magnitudes would wipe out accuracy entirely, so the fault grid
// sits two decades lower, plus the fault-free point.
var DefaultFaultSweep = []float64{0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0002, 0.0001, 0}

// Options parameterizes an analysis run.
type Options struct {
	// NMSweep is the descending noise-magnitude grid; defaults to
	// PaperNMSweep.
	NMSweep []float64
	// NA is the noise average (paper uses 0 for the general case).
	NA float64
	// Trials is the number of independent noise seeds averaged per
	// sweep point.
	Trials int
	// Batch is the evaluation batch size.
	Batch int
	// Threshold is the tolerable accuracy drop (fraction, e.g. 0.01)
	// used to mark resilience and set NM budgets.
	Threshold float64
	// Seed drives all injected noise.
	Seed uint64
	// Noise selects the injector kind the sweep grid drives: the zero
	// value is the paper's Gaussian model; the fault kinds (bit-flip,
	// stuck-at) reinterpret NMSweep as their severity grid (flip
	// probability, stuck fraction). See noise.Spec.
	Noise noise.Spec
	// Softmax and Squash name the nonlinearity variants every evaluation
	// runs under ("" or "exact" is the bit-exact default; see
	// approx.SoftmaxNames / approx.SquashNames for the approximate
	// variants). Non-default variants shorten the clean-prefix frontier
	// to the first affected layer and fold into the checkpoint
	// fingerprint.
	Softmax string
	Squash  string
	// MaxEval caps the number of test samples evaluated per sweep point
	// (0 = all).
	MaxEval int
	// Workers bounds the sweep engine's evaluation goroutines
	// (0 = runtime.GOMAXPROCS(0)). Scheduling never affects results:
	// sweeps are bit-identical for any worker count.
	Workers int
}

// WithDefaults fills unset options with the paper's defaults and
// normalizes the noise-magnitude grid: negatives are dropped, duplicates
// removed, and the grid sorted descending. SelectComponents and the
// resilience marking assume NMSweep[0] is the grid maximum, so callers
// may supply the grid in any order.
func (o Options) WithDefaults() Options {
	o.NMSweep = normalizeNMSweep(o.NMSweep)
	if len(o.NMSweep) == 0 {
		o.NMSweep = PaperNMSweep
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.Threshold == 0 {
		o.Threshold = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if n, err := o.Noise.Normalize(); err == nil && !n.IsGaussian() {
		// Canonicalize non-default kinds only: the gaussian default keeps
		// its zero value so pre-existing fingerprints and wire forms are
		// untouched. Invalid specs pass through and fail loudly in the
		// sweep entry points.
		o.Noise = n
	}
	if o.Softmax == "exact" {
		o.Softmax = ""
	}
	if o.Squash == "exact" {
		o.Squash = ""
	}
	return o
}

// normalizeNMSweep returns the grid sorted descending with negative
// magnitudes dropped and duplicates removed. An already-normalized grid
// (like PaperNMSweep) round-trips unchanged, so default fingerprints are
// stable.
func normalizeNMSweep(grid []float64) []float64 {
	out := make([]float64, 0, len(grid))
	for _, v := range grid {
		if v >= 0 {
			out = append(out, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Fingerprint hashes the results-affecting options into a short stable
// key for checkpoint identity. Workers is deliberately excluded: it
// alters scheduling only, never results, so a run checkpointed at one
// worker count resumes bit-identically at another.
func (o Options) Fingerprint() string {
	o = o.WithDefaults()
	s := fmt.Sprintf(
		"opts-v1|nm=%v|na=%g|trials=%d|batch=%d|thr=%g|seed=%d|maxeval=%d",
		o.NMSweep, o.NA, o.Trials, o.Batch, o.Threshold, o.Seed, o.MaxEval)
	// The new sweep dimensions append only when non-default, so every
	// pre-existing checkpoint keeps its fingerprint: a gaussian sweep
	// under exact nonlinearities hashes the exact pre-dimension string.
	if !o.Noise.IsGaussian() {
		s += "|noise=" + o.Noise.String()
	}
	if o.Softmax != "" {
		s += "|softmax=" + o.Softmax
	}
	if o.Squash != "" {
		s += "|squash=" + o.Squash
	}
	return checkpoint.Fingerprint(s)
}

// ResolveNonlinearity resolves softmax/squash variant names into the
// caps.Nonlinearity the execution paths thread through routing. Empty or
// "exact" names resolve to the exact operator (a zero Nonlinearity when
// both are default); unknown names error listing the valid variants.
func ResolveNonlinearity(softmax, squash string) (caps.Nonlinearity, error) {
	smFn, err := approx.SoftmaxByName(softmax)
	if err != nil {
		return caps.Nonlinearity{}, err
	}
	sqFn, err := approx.SquashByName(squash)
	if err != nil {
		return caps.Nonlinearity{}, err
	}
	var nl caps.Nonlinearity
	if smFn != nil {
		nl.SoftmaxName, nl.SoftmaxFn = softmax, caps.NonlinearFn(smFn)
	}
	if sqFn != nil {
		nl.SquashName, nl.SquashFn = squash, caps.NonlinearFn(sqFn)
	}
	return nl, nil
}

// SweepPoint is one (NM, accuracy) measurement.
type SweepPoint struct {
	NM       float64
	Accuracy float64
	// Drop is Accuracy − CleanAccuracy (negative when noise hurts).
	Drop float64
}

// GroupResult is the Step 2/3 outcome for one operation group.
type GroupResult struct {
	Group  noise.Group
	Points []SweepPoint
	// Resilient marks the groups that tolerate strictly more noise than
	// the median group (Step 3). The paper marks resilient groups to
	// skip their layer-wise analysis ("a considerable amount of unuseful
	// testing can be skipped"); groups tolerating the full sweep are
	// always resilient.
	Resilient bool
	// ToleratedNM is the largest swept NM whose drop is within the
	// threshold.
	ToleratedNM float64
}

// LayerResult is the Step 4/5 outcome for one (layer, group) pair.
type LayerResult struct {
	Layer       string
	Group       noise.Group
	Points      []SweepPoint
	ToleratedNM float64
	// Resilient marks layers tolerating at least the median tolerated
	// NM of their group (Step 5's "more resilient" labeling).
	Resilient bool
}

// Choice is one Step 6 component assignment.
type Choice struct {
	Site      noise.Site
	Component approx.Component
	// ComponentNM is the component's measured noise magnitude used for
	// the fit test.
	ComponentNM float64
	// BudgetNM is the site's tolerated noise magnitude.
	BudgetNM float64
}

// Report is the full output of a ReD-CaNe run.
type Report struct {
	Network       string
	Dataset       string
	CleanAccuracy float64
	Groups        []GroupResult
	Layers        []LayerResult
	Choices       []Choice
	// MulEnergySaving is the predicted energy saving on the multiplier
	// share from the selected components, as a fraction of multiplier
	// energy.
	MulEnergySaving float64
	// ValidatedAccuracy is the test accuracy with every site
	// simultaneously injected at its selected component's NM/NA.
	ValidatedAccuracy float64
}

// Analyzer runs the methodology against one trained network + dataset.
type Analyzer struct {
	Net  *caps.Network
	Data *datasets.Dataset
	Opts Options
	// Obs, when non-nil, receives the sweep engine's telemetry: structured
	// progress events (per-group/per-layer sweeps with rates and ETAs) and
	// the engine metrics (prefix-cache hits/misses, jobs scheduled,
	// worker-pool busy time, scratch-arena traffic). Telemetry never
	// alters results; a nil Obs disables it at the cost of one branch.
	Obs *obs.Obs
	// Checkpoint, when non-nil, persists every fold's correct-counts
	// (each sweep and each named evaluation) so an interrupted run resumes
	// bit-identically: the analysis steps re-derive their results from
	// the folded counts, and unnamed evaluations (the clean baseline, the
	// Step 6 validation) run again. Open the store keyed by (benchmark,
	// seed, Options.Fingerprint()); a store opened under a different
	// fingerprint ignores its stale contents. A nil Checkpoint disables
	// persistence entirely.
	Checkpoint *checkpoint.Store
	// Probes, when non-nil, turns on the numeric-health probes: every
	// sweep and named evaluation records per-layer activation
	// statistics (range, moments, SQNR vs the clean reference,
	// saturation/overflow) into the set. Probing is inert — reports and
	// checkpoints are byte-identical with probes on or off — and the
	// aggregation is bit-identical across worker counts. It roughly
	// doubles evaluation cost (a clean reference pass per job). Probes
	// is not part of Options, so checkpoint fingerprints are unaffected.
	Probes *ProbeSet
	// Fleet, when non-nil, distributes the named group/layer sweeps of
	// the methodology as leased batch windows instead of running them on
	// this process's worker pool. Results are byte-identical either way:
	// workers compute the same counter-seeded integer counts the local
	// pool would, and the same fold takes them in ascending window order
	// through the same checkpoint. A nil Fleet keeps every sweep local.
	Fleet Fleet

	sites  map[noise.Group][]noise.Site // Step 1 cache
	pcache *prefixCache                 // sweep engine's whole-set clean-prefix cache
	// afterWindow, when non-nil, runs after every folded (and
	// checkpointed) batch window of a sweep or backend evaluation — a
	// test seam for deterministic mid-run interruption.
	afterWindow func(batchesDone, totalBatches int)
	// windowBatches, when positive, splits a local fold into windows of
	// that many batches — a test seam for mid-fold checkpoints and
	// window-layout invariance. Zero runs the remaining batches as one
	// window.
	windowBatches int
}

// execBackend resolves the analyzer's configured softmax/squash variants
// and wraps the given backend with them. The exact default returns be
// unchanged, so default runs execute exactly the pre-seam code path.
func (a *Analyzer) execBackend(be caps.Backend) (caps.Backend, error) {
	nl, err := ResolveNonlinearity(a.Opts.Softmax, a.Opts.Squash)
	if err != nil {
		return nil, err
	}
	return caps.WithNonlinearity(be, nl), nil
}

// evalData returns the (possibly truncated) test split.
func (a *Analyzer) evalData() (*tensor.Tensor, []int) {
	x, y := a.Data.TestX, a.Data.TestY
	if a.Opts.MaxEval > 0 && a.Opts.MaxEval < x.Shape[0] {
		n := a.Opts.MaxEval
		sample := x.Len() / x.Shape[0]
		x = tensor.NewFrom(x.Data[:n*sample], append([]int{n}, x.Shape[1:]...)...)
		y = y[:n]
	}
	return x, y
}

// ExtractGroups is Step 1: one instrumented forward pass enumerates the
// injection sites, partitioned by Table III group.
func (a *Analyzer) ExtractGroups() map[noise.Group][]noise.Site {
	if a.sites != nil {
		return a.sites
	}
	rec := noise.NewSiteRecorder()
	x, _ := a.evalData()
	sample := x.Len() / x.Shape[0]
	one := tensor.NewFrom(x.Data[:sample], append([]int{1}, x.Shape[1:]...)...)
	a.Net.Forward(one, rec)
	a.sites = rec.ByGroup()
	return a.sites
}

// toleratedNM returns the largest NM whose drop stays within the
// threshold (the grid is descending; 0 is always tolerated).
func toleratedNM(points []SweepPoint, threshold float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.Drop >= -threshold && p.NM > best {
			best = p.NM
		}
	}
	return best
}

// AnalyzeGroups is Step 2 + Step 3. Each group's sweep checkpoints its
// own counts, so a rerun over a finished checkpoint evaluates nothing and
// marks the groups again from the resumed points.
func (a *Analyzer) AnalyzeGroups(ctx context.Context, clean float64) ([]GroupResult, error) {
	a.Opts = a.Opts.WithDefaults()
	o := a.Opts
	groups := a.ExtractGroups()
	total := 0
	for _, g := range noise.Groups() {
		if len(groups[g]) > 0 {
			total++
		}
	}
	start := time.Now()
	// Stable order: Table III order, skipping absent groups.
	var out []GroupResult
	var tols []float64
	for gi, g := range noise.Groups() {
		if len(groups[g]) == 0 {
			continue
		}
		pts, err := a.Sweep(ctx, ScopeForGroup(g), clean, uint64(gi)*100000)
		if err != nil {
			return nil, fmt.Errorf("group sweep %s: %w", g, err)
		}
		tol := toleratedNM(pts, o.Threshold)
		tols = append(tols, tol)
		out = append(out, GroupResult{Group: g, Points: pts, ToleratedNM: tol})
		a.progress("group sweep done", g.String(), len(out), total, start,
			obs.F("tolerated_nm", tol))
	}
	// Step 3: a group is resilient when it tolerates strictly more noise
	// than the median group (or the entire sweep).
	med := median(tols)
	maxNM := o.NMSweep[0]
	for i := range out {
		out[i].Resilient = out[i].ToleratedNM >= maxNM ||
			(out[i].ToleratedNM > med && out[i].ToleratedNM > 0)
	}
	return out, nil
}

// AnalyzeLayers is Step 4 + Step 5: per-layer sweeps for each
// non-resilient group, resumed and re-marked like AnalyzeGroups.
func (a *Analyzer) AnalyzeLayers(ctx context.Context, groups []GroupResult, clean float64) ([]LayerResult, error) {
	a.Opts = a.Opts.WithDefaults()
	o := a.Opts
	sitesByGroup := a.ExtractGroups()
	total := 0
	for _, gr := range groups {
		if !gr.Resilient {
			total += len(sitesByGroup[gr.Group])
		}
	}
	began := time.Now()
	var out []LayerResult
	for gi, gr := range groups {
		if gr.Resilient {
			continue
		}
		var tols []float64
		start := len(out)
		for li, site := range sitesByGroup[gr.Group] {
			pts, err := a.Sweep(ctx, ScopeForLayer(site.Layer, gr.Group), clean,
				uint64(gi+1)*10000000+uint64(li)*100000)
			if err != nil {
				return nil, fmt.Errorf("layer sweep %s/%s: %w", site.Layer, gr.Group, err)
			}
			tol := toleratedNM(pts, o.Threshold)
			tols = append(tols, tol)
			out = append(out, LayerResult{
				Layer: site.Layer, Group: gr.Group,
				Points: pts, ToleratedNM: tol,
			})
			a.progress("layer sweep done", site.Layer+"/"+gr.Group.String(),
				len(out), total, began, obs.F("tolerated_nm", tol))
		}
		// Step 5: mark layers at or above their group's median tolerance.
		med := median(tols)
		for i := start; i < len(out); i++ {
			out[i].Resilient = out[i].ToleratedNM >= med && med > 0
		}
	}
	return out, nil
}

// progress emits one info-level progress line for a finished sweep,
// with the engine's evaluation rate and the ETA for the remaining sweeps
// of the current analysis step.
func (a *Analyzer) progress(msg, target string, done, total int, start time.Time, extra ...obs.Field) {
	if !a.Obs.Enabled(obs.Info) {
		return
	}
	fields := []obs.Field{
		obs.F("target", target),
		obs.F("progress", fmt.Sprintf("%d/%d", done, total)),
		obs.F("jobs_per_sec", fmt.Sprintf("%.1f", a.Obs.Gauge("sweep.last_jobs_per_sec").Value())),
	}
	if done > 0 && done < total {
		elapsed := time.Since(start)
		eta := elapsed / time.Duration(done) * time.Duration(total-done)
		fields = append(fields, obs.F("eta", eta.Round(time.Second)))
	}
	a.Obs.Info(msg, append(fields, extra...)...)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ComponentProfile pairs a library component with its measured noise
// parameters under a representative input distribution (see
// approx.CharacterizeAll). ChainLen records the MAC-accumulation depth the
// profile was measured at; 0 means depth-agnostic (legacy single-depth
// libraries), matching any site.
type ComponentProfile struct {
	Component approx.Component
	NM, NA    float64
	ChainLen  int
}

// LibraryChainLens is the default set of accumulation depths the
// component library is characterized at: the paper's Fig. 6 profiles use
// 9-MAC chains (3×3 kernels) and the deep 81-MAC chains of 9×9 kernels
// and wide conv layers.
var LibraryChainLens = []int{9, 81}

// ProfileLibraryDepths characterizes every library component under the
// given distribution at every given chain length, ready for
// SelectComponents, which matches each site against the profile measured
// at the depth closest to the site's real accumulation depth
// (caps.Network.MACDepths). Each component's LUT is compiled once, and
// each chain length scores the whole library on one operand stream
// (approx.CharacterizeAll).
func ProfileLibraryDepths(dist approx.InputDist, chainLens []int, samples int, seed uint64) []ComponentProfile {
	lib := approx.Library()
	luts := approx.Models(lib)
	for i, m := range luts {
		luts[i] = approx.CompileLUT(m)
	}
	var out []ComponentProfile
	for _, cl := range chainLens {
		for i, p := range approx.CharacterizeAll(luts, dist, cl, samples, seed) {
			out = append(out, ComponentProfile{Component: lib[i], NM: p.NM, NA: p.NA, ChainLen: cl})
		}
	}
	return out
}

// PickChainLen returns the available chain length closest (in log scale,
// since error accumulation scales multiplicatively with depth) to the
// site's accumulation depth. An empty availability list returns depth
// itself.
func PickChainLen(available []int, depth int) int {
	if depth < 1 {
		depth = 1
	}
	if len(available) == 0 {
		return depth
	}
	best, bestD := available[0], math.Inf(1)
	for _, c := range available {
		if c < 1 {
			continue
		}
		d := math.Abs(math.Log(float64(c)) - math.Log(float64(depth)))
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// profilesForDepth filters profiles to those characterized at the chain
// length best matching the given accumulation depth. Depth-agnostic
// profiles (ChainLen 0) always survive; a single-depth library or an
// unknown depth passes through unchanged.
func profilesForDepth(profiles []ComponentProfile, depth int) []ComponentProfile {
	if depth <= 0 {
		return profiles
	}
	var lens []int
	seen := map[int]bool{}
	for _, p := range profiles {
		if p.ChainLen > 0 && !seen[p.ChainLen] {
			seen[p.ChainLen] = true
			lens = append(lens, p.ChainLen)
		}
	}
	if len(lens) <= 1 {
		return profiles
	}
	pick := PickChainLen(lens, depth)
	out := make([]ComponentProfile, 0, len(profiles))
	for _, p := range profiles {
		if p.ChainLen == 0 || p.ChainLen == pick {
			out = append(out, p)
		}
	}
	return out
}

// SelectComponents is Step 6: for every site, pick the lowest-power
// component whose measured NM fits the site's tolerated budget. Sites in
// resilient groups get the full budget of the largest swept NM; sites in
// non-resilient groups use their layer's tolerated NM. When the profile
// library carries multiple characterization depths, each site consults
// the profiles measured at the depth closest to its layer's real MAC
// accumulation depth.
func (a *Analyzer) SelectComponents(groups []GroupResult, layers []LayerResult, profiles []ComponentProfile) []Choice {
	o := a.Opts
	maxNM := o.NMSweep[0]
	sitesByGroup := a.ExtractGroups()
	depths := a.Net.MACDepths()

	budget := map[noise.Site]float64{}
	for _, gr := range groups {
		tol := gr.ToleratedNM
		if tol > maxNM {
			tol = maxNM
		}
		for _, s := range sitesByGroup[gr.Group] {
			budget[s] = tol
		}
	}
	for _, lr := range layers {
		budget[noise.Site{Layer: lr.Layer, Group: lr.Group}] = lr.ToleratedNM
	}

	// Cheapest-first scan.
	sorted := append([]ComponentProfile(nil), profiles...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Component.PowerUW < sorted[j].Component.PowerUW
	})

	sites := []noise.Site{}
	for _, g := range noise.Groups() {
		sites = append(sites, sitesByGroup[g]...)
	}

	var out []Choice
	for _, s := range sites {
		b := budget[s]
		cands := profilesForDepth(sorted, depths[s.Layer])
		chosen := cands[len(cands)-1] // fallback: most accurate
		for _, p := range cands {
			if p.NM <= b {
				chosen = p
				break
			}
		}
		if b == 0 {
			// No tolerance measured: force the accurate component.
			for _, p := range cands {
				if p.NM == 0 {
					chosen = p
					break
				}
			}
		}
		out = append(out, Choice{
			Site:        s,
			Component:   chosen.Component,
			ComponentNM: chosen.NM,
			BudgetNM:    b,
		})
	}
	return out
}

// NewPerSiteInjector builds the validation injector: each site receives
// its selected component's NM (NA = 0 as in the paper's general case).
func NewPerSiteInjector(choices []Choice, seed uint64) *noise.PerSite {
	params := map[noise.Site]noise.Params{}
	for _, c := range choices {
		params[c.Site] = noise.Params{NM: c.ComponentNM, NA: 0}
	}
	return noise.NewPerSite(params, seed)
}

// RunMethodology executes the full 6-step methodology and assembles the
// report. Cancelling ctx stops the run at the next batch boundary with
// ctx's error; with a non-nil a.Checkpoint, every folded sweep persists
// and a rerun resumes bit-identically after the last checkpointed fold.
func (a *Analyzer) RunMethodology(ctx context.Context, profiles []ComponentProfile) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.Opts = a.Opts.WithDefaults()
	run := a.Obs.StartSpan("methodology.run",
		obs.F("network", a.Net.Name()), obs.F("dataset", a.Data.Name))
	sp := run.Child("methodology.clean_eval")
	clean, err := a.Evaluate(ctx, nil, nil, "")
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = run.Child("methodology.groups")
	groups, err := a.AnalyzeGroups(ctx, clean)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = run.Child("methodology.layers")
	layers, err := a.AnalyzeLayers(ctx, groups, clean)
	sp.End()
	if err != nil {
		return nil, err
	}
	choices := a.SelectComponents(groups, layers, profiles)

	// Predicted multiplier-energy saving, weighted by per-layer MAC ops.
	mulOps := a.Net.OpsByLayer(1)
	var totalMul, savedMul float64
	for _, c := range choices {
		if c.Site.Group != noise.MACOutputs {
			continue
		}
		m := mulOps[c.Site.Layer].Mul
		totalMul += m
		savedMul += m * c.Component.PowerReduction()
	}
	saving := 0.0
	if totalMul > 0 {
		saving = savedMul / totalMul
	}

	sp = run.Child("methodology.validate")
	validated, err := a.validate(ctx, choices)
	sp.End()
	if err != nil {
		return nil, err
	}
	run.End()

	return &Report{
		Network:           a.Net.Name(),
		Dataset:           a.Data.Name,
		CleanAccuracy:     clean,
		Groups:            groups,
		Layers:            layers,
		Choices:           choices,
		MulEnergySaving:   saving,
		ValidatedAccuracy: validated,
	}, nil
}

// validate measures a design's accuracy with every site injected at once
// (Step 6's check). The noise draw depends only on the choices and
// a.Opts.Seed, so Refine's upgrades compare against the methodology's
// validation under one draw.
func (a *Analyzer) validate(ctx context.Context, choices []Choice) (float64, error) {
	return a.Evaluate(ctx, nil, NewPerSiteInjector(choices, a.Opts.Seed+777), "")
}

// FormatReport renders a human-readable summary.
func FormatReport(r *Report) string {
	s := fmt.Sprintf("ReD-CaNe report: %s on %s\nclean accuracy: %.2f%%\n\ngroup-wise resilience:\n",
		r.Network, r.Dataset, 100*r.CleanAccuracy)
	for _, g := range r.Groups {
		status := "non-resilient"
		if g.Resilient {
			status = "RESILIENT"
		}
		s += fmt.Sprintf("  %-14s tolerated NM=%.3f  [%s]\n", g.Group, g.ToleratedNM, status)
	}
	if len(r.Layers) > 0 {
		s += "\nlayer-wise (non-resilient groups):\n"
		for _, l := range r.Layers {
			mark := ""
			if l.Resilient {
				mark = "  (resilient)"
			}
			s += fmt.Sprintf("  %-10s %-14s tolerated NM=%.3f%s\n", l.Layer, l.Group, l.ToleratedNM, mark)
		}
	}
	s += "\nselected components:\n"
	for _, c := range r.Choices {
		s += fmt.Sprintf("  %-10s %-14s -> %-12s (NM=%.4f, budget=%.3f, power %-4.0f µW)\n",
			c.Site.Layer, c.Site.Group, c.Component.Name, c.ComponentNM, c.BudgetNM, c.Component.PowerUW)
	}
	s += fmt.Sprintf("\npredicted multiplier-energy saving: %.1f%%\nvalidated accuracy: %.2f%% (drop %.2f pp)\n",
		100*r.MulEnergySaving, 100*r.ValidatedAccuracy, 100*(r.ValidatedAccuracy-r.CleanAccuracy))
	return s
}
