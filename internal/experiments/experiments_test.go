package experiments

import (
	"math"
	"os"
	"strings"
	"testing"

	"redcane/internal/noise"
)

// sharedRunner trains quick-mode benchmarks once for the whole package.
var sharedRunner *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner == nil {
		dir, err := os.MkdirTemp("", "redcane-test-cache")
		if err != nil {
			t.Fatal(err)
		}
		sharedRunner = NewRunner(Config{Dir: dir, Quick: true, Seed: 42})
	}
	return sharedRunner
}

func TestTable1CountsShape(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: mul and add dominate and sit within 2× of each other;
	// div/exp/sqrt are orders of magnitude rarer.
	if res.Ours.Mul < 1e8 {
		t.Fatalf("mul count = %g", res.Ours.Mul)
	}
	ratio := res.Ours.Mul / res.Ours.Add
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("mul/add = %g", ratio)
	}
	if res.Ours.Div > res.Ours.Mul/100 || res.Ours.Exp > res.Ours.Div {
		t.Fatalf("op mix off: %+v", res.Ours)
	}
	if !strings.Contains(res.Render(), "Multiplication") {
		t.Fatal("render missing rows")
	}
}

func TestFig4MultipliersDominate(t *testing.T) {
	res, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ours.MulShare < 0.90 {
		t.Fatalf("mul share = %g, want ≥ 0.90 (paper: 0.96)", res.Ours.MulShare)
	}
	if res.Ours.AddShare > 0.08 {
		t.Fatalf("add share = %g", res.Ours.AddShare)
	}
	if res.Paper.MulShare < 0.95 || res.Paper.MulShare > 0.97 {
		t.Fatalf("paper-counts mul share = %g, want ≈0.96", res.Paper.MulShare)
	}
}

func TestFig5ScenarioOrdering(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	saving := map[string]float64{}
	for _, r := range res.Results {
		saving[r.Scenario.Name] = r.SavingVsAcc
	}
	// XM ≈ −28 %, XA small, XAM ≈ XM + XA.
	if saving["XM"] > -0.20 || saving["XM"] < -0.35 {
		t.Fatalf("XM saving = %g", saving["XM"])
	}
	if saving["XA"] < -0.08 || saving["XA"] > 0 {
		t.Fatalf("XA saving = %g", saving["XA"])
	}
	if !(saving["XAM"] < saving["XM"] && saving["XM"] < saving["XA"]) {
		t.Fatalf("ordering broken: %+v", saving)
	}
}

func TestFig6GaussianAndSqrtGrowth(t *testing.T) {
	res, err := runner(t).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 6 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	byKey := map[string]map[int]float64{}
	for _, p := range res.Profiles {
		if byKey[p.Component] == nil {
			byKey[p.Component] = map[int]float64{}
		}
		byKey[p.Component][p.ChainLen] = p.Fit.Std
		if p.ChainLen == 81 && p.Fit.KS > 0.1 {
			t.Fatalf("%s @81 MACs not Gaussian-like: KS=%g", p.Component, p.Fit.KS)
		}
	}
	for comp, stds := range byKey {
		if !(stds[1] < stds[9] && stds[9] < stds[81]) {
			t.Fatalf("%s: std not growing with MAC chain: %v", comp, stds)
		}
	}
	// DM1 is the more aggressive component: wider errors than NGR.
	if byKey["mul8u_DM1"][9] <= byKey["mul8u_NGR"][9] {
		t.Fatalf("DM1 std %g <= NGR std %g", byKey["mul8u_DM1"][9], byKey["mul8u_NGR"][9])
	}
}

func TestTable2AccuraciesAndOrdering(t *testing.T) {
	res, err := runner(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	acc := map[string]float64{}
	for _, row := range res.Rows {
		if row.Accuracy < 60 {
			t.Fatalf("%s/%s accuracy %.1f%% too low to analyze",
				row.Benchmark.Arch, row.Benchmark.Dataset, row.Accuracy)
		}
		acc[row.Benchmark.Key()] = row.Accuracy
	}
	// Paper ordering: MNIST easiest, CIFAR hardest for DeepCaps.
	if acc["deepcaps-cifar-like"] > acc["deepcaps-mnist-like"] {
		t.Fatalf("cifar (%.1f) should be harder than mnist (%.1f)",
			acc["deepcaps-cifar-like"], acc["deepcaps-mnist-like"])
	}
}

func TestTable3GroupsComplete(t *testing.T) {
	res, err := runner(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// DeepCaps: 16 conv-ish MAC sites + 2 routing MAC sites = 18.
	if n := len(res.Groups[0].Sites); n != 18 {
		t.Fatalf("MAC sites = %d, want 18", n)
	}
	// Softmax and logits update appear exactly at the 2 routing layers.
	for _, gi := range []int{2, 3} {
		if n := len(res.Groups[gi].Sites); n != 2 {
			t.Fatalf("%v sites = %d, want 2", res.Groups[gi].Group, n)
		}
	}
}

func TestFig9RoutingGroupsMoreResilient(t *testing.T) {
	res, err := runner(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	tol := map[noise.Group]float64{}
	for _, g := range res.Groups {
		tol[g.Group] = g.ToleratedNM
	}
	if tol[noise.Softmax] < tol[noise.MACOutputs] || tol[noise.LogitsUpdate] < tol[noise.MACOutputs] {
		t.Fatalf("routing groups not more resilient: %+v", tol)
	}
	// MAC outputs at NM=0.5 must collapse hard (paper: −80 %).
	for _, g := range res.Groups {
		if g.Group == noise.MACOutputs && g.Points[0].Drop > -0.3 {
			t.Fatalf("MAC outputs at NM=0.5 dropped only %.2f", g.Points[0].Drop)
		}
	}
}

func TestFig10FirstConvLeastResilient(t *testing.T) {
	res, err := runner(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) == 0 {
		t.Fatal("no layer results — were all groups resilient?")
	}
	byLayer := map[string]float64{}
	for _, l := range res.Layers {
		if l.Group == noise.MACOutputs {
			byLayer[l.Layer] = l.ToleratedNM
		}
	}
	// Paper: the first conv layer is the least resilient; Caps3D (the
	// routing conv) is the most resilient. Quick-mode evaluation is
	// coarse (60 samples), so allow one NM grid step (≈2.5×) of slack.
	conv := byLayer["Conv2D"]
	caps3d := byLayer["Caps3D"]
	if 2.6*caps3d < conv {
		t.Fatalf("Caps3D tolerated NM %.3f ≪ Conv2D %.3f — routing layer should be more resilient", caps3d, conv)
	}
	// Conv2D must be among the least-tolerant half of the layers.
	lower := 0
	for _, v := range byLayer {
		if v < conv {
			lower++
		}
	}
	if lower > len(byLayer)/2 {
		t.Fatalf("Conv2D not among the least resilient (NM %.3f, %d layers lower)", conv, lower)
	}
}

func TestFig11PoolsAndHistogram(t *testing.T) {
	res, err := runner(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PoolA) < 1000 || len(res.PoolB) < 1000 {
		t.Fatalf("pools too small: %d / %d", len(res.PoolA), len(res.PoolB))
	}
	if res.Overall.N == 0 {
		t.Fatal("empty overall histogram")
	}
	if len(res.PerLayer) < 10 {
		t.Fatalf("per-layer histograms = %d", len(res.PerLayer))
	}
	if !strings.Contains(res.Render(), "Fig. 11") {
		t.Fatal("render broken")
	}
}

func TestTable4ModeledTracksPower(t *testing.T) {
	res, err := runner(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Accurate component: zero NM under both distributions.
	if res.Rows[0].ModeledNM != 0 || res.Rows[0].RealNM != 0 {
		t.Fatalf("accurate row = %+v", res.Rows[0])
	}
	// Cheapest components must be noisier than the most accurate ones,
	// under both distributions.
	last := res.Rows[len(res.Rows)-1]
	if last.ModeledNM <= res.Rows[1].ModeledNM {
		t.Fatalf("modeled NM ordering broken: %+v vs %+v", last, res.Rows[1])
	}
	if last.RealNM <= 0 {
		t.Fatalf("real NM missing: %+v", last)
	}
}

func TestFig12AllBenchmarksShareTheHeadline(t *testing.T) {
	res, err := runner(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("benchmarks = %d", len(res))
	}
	for _, r := range res {
		tol := map[noise.Group]float64{}
		for _, g := range r.Groups {
			tol[g.Group] = g.ToleratedNM
		}
		if tol[noise.Softmax] < tol[noise.MACOutputs] {
			t.Errorf("%s/%s: softmax (%.3f) less resilient than MAC (%.3f)",
				r.Benchmark.Arch, r.Benchmark.Dataset, tol[noise.Softmax], tol[noise.MACOutputs])
		}
	}
}

func TestDesignProducesViableApproxCapsNet(t *testing.T) {
	res, err := runner(t).Design(DefaultBenchmark) // capsnet/mnist: fastest
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if len(r.Choices) == 0 {
		t.Fatal("no component choices")
	}
	if r.ValidatedAccuracy < r.CleanAccuracy-0.15 {
		t.Fatalf("validated %.3f collapsed vs clean %.3f", r.ValidatedAccuracy, r.CleanAccuracy)
	}
	if r.MulEnergySaving <= 0 {
		t.Fatalf("no energy saving: %g", r.MulEnergySaving)
	}
}

func TestAblationRoutingIterations(t *testing.T) {
	res, err := runner(t).AblationRoutingIterations()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DropByIters) != 3 {
		t.Fatalf("iters measured = %d", len(res.DropByIters))
	}
	for it, d := range res.DropByIters {
		if d < -1 || d > 0.25 {
			t.Fatalf("iter %d: impossible drop %g", it, d)
		}
	}
	// Vote noise at NM=0.1 on the two routing layers must not collapse
	// the network at the paper's 3-iteration setting.
	if res.DropByIters[3] < -0.5 {
		t.Fatalf("3-iteration routing collapsed under vote noise: %g", res.DropByIters[3])
	}
}

func TestAblationNoiseVsLUTAgreement(t *testing.T) {
	res, err := runner(t).AblationNoiseVsLUT()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		switch row.Component {
		case "mul8u_NGR", "mul8u_DM1":
			// For the mild components ReD-CaNe actually selects, the
			// Gaussian model must track LUT execution within 25 pp.
			if math.Abs(row.LUTAccuracy-row.ModelAccuracy) > 0.25 {
				t.Errorf("%s: LUT %.2f vs model %.2f", row.Component, row.LUTAccuracy, row.ModelAccuracy)
			}
		default:
			// The aggressive components (JV3, QKX) break the Gaussian
			// assumption on skewed real operands (documented model
			// limit); the model must still predict a degradation in
			// the right direction when the LUT run degrades badly.
			if row.LUTAccuracy < res.Clean-0.3 && row.ModelAccuracy > res.Clean-0.005 {
				t.Errorf("%s: LUT collapsed to %.2f but model predicts no drop (%.2f)",
					row.Component, row.LUTAccuracy, row.ModelAccuracy)
			}
		}
	}
}

func TestAblationNoiseAverageBiasHurts(t *testing.T) {
	res, err := runner(t).AblationNoiseAverage()
	if err != nil {
		t.Fatal(err)
	}
	// |NA| = 0.05 must hurt at least as much as NA = 0.
	var at0, atBig float64
	for i, na := range res.NAs {
		if na == 0 {
			at0 = res.Drops[i]
		}
		if na == 0.05 {
			atBig = res.Drops[i]
		}
	}
	if atBig > at0+0.02 {
		t.Fatalf("large NA (%.3f drop) should hurt vs NA=0 (%.3f drop)", atBig, at0)
	}
}

func TestValidateComparesModelAgainstBackend(t *testing.T) {
	res, err := runner(t).Validate(DefaultBenchmark, "quant-approx", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean <= 0.5 {
		t.Fatalf("clean accuracy = %g", res.Clean)
	}
	// Exact 8-bit quantization alone must not collapse the network.
	if res.QuantBaseline < res.Clean-0.2 {
		t.Fatalf("quant-exact baseline %.3f collapsed vs clean %.3f", res.QuantBaseline, res.Clean)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if r0 := res.Rows[0]; r0.Scope != "design" || r0.Name != "all" {
		t.Fatalf("first row = %+v, want whole-design scope", r0)
	}
	layerRows := 0
	for _, row := range res.Rows {
		if row.Predicted < 0 || row.Predicted > 1 || row.Measured < 0 || row.Measured > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
		if row.Scope == "layer" {
			layerRows++
			// Layer rows are single MAC choices — exactly what a multiplier
			// substitution realizes.
			if row.Sites != 1 || row.MACSites != 1 || !row.Realizable || row.Component == "" {
				t.Fatalf("layer row not realizable: %+v", row)
			}
		}
	}
	if layerRows == 0 {
		t.Fatal("no per-layer rows")
	}
	if !strings.Contains(res.Render(), "Error-model validation") {
		t.Fatal("render broken")
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "predicted_acc") || !strings.Contains(b.String(), "design,all") {
		t.Fatalf("csv malformed:\n%s", b.String())
	}
	// A backend typo fails before any training or analysis.
	if _, err := runner(t).Validate(DefaultBenchmark, "bogus", 8); err == nil {
		t.Fatal("expected unknown-backend error")
	}
	// Approximate multipliers cannot run above the LUT wordlength.
	if _, err := runner(t).Validate(DefaultBenchmark, "quant-approx", 12); err == nil {
		t.Fatal("expected wide-wordlength error")
	}
}

func TestRunnerCachesWeightsOnDisk(t *testing.T) {
	r := runner(t)
	tr1, err := r.Trained(DefaultBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh runner sharing the cache dir must load, not retrain:
	// verify by checking identical weights.
	r2 := NewRunner(Config{Dir: r.Cfg.Dir, Quick: true, Seed: 42})
	tr2, err := r2.Trained(DefaultBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	w1 := tr1.Net.Params()["Conv2D/W"]
	w2 := tr2.Net.Params()["Conv2D/W"]
	for i := range w1.Data {
		if w1.Data[i] != w2.Data[i] {
			t.Fatal("cached weights differ from trained weights")
		}
	}
}

func TestRendersNonEmpty(t *testing.T) {
	r := runner(t)
	fig9, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		fig9.Render(),
	} {
		if len(s) < 50 {
			t.Fatalf("render too short: %q", s)
		}
	}
}

func TestAccelSystemSavingsSmallerThanCompute(t *testing.T) {
	res, err := Accel()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 18 || len(res.Rows) != 4 {
		t.Fatalf("reports=%d rows=%d", len(res.Reports), len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SystemSaving <= 0 || row.SystemSaving >= row.ComputeSaving {
			t.Fatalf("%s: system %.3f vs compute %.3f", row.Component, row.SystemSaving, row.ComputeSaving)
		}
	}
	// NGR's compute-only saving must sit near Fig. 5's XM bar.
	if math.Abs(res.Rows[0].ComputeSaving-0.283) > 0.02 {
		t.Fatalf("NGR compute saving = %g, want ≈0.283", res.Rows[0].ComputeSaving)
	}
	if !strings.Contains(res.Render(), "system saving") {
		t.Fatal("render broken")
	}
}

func TestAblationSelectionStrategyDominance(t *testing.T) {
	res, err := runner(t).AblationSelectionStrategy(DefaultBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Uniform) != 15 {
		t.Fatalf("uniform designs = %d", len(res.Uniform))
	}
	// The heterogeneous design must not collapse and must save energy.
	if res.ReDCaNe.Accuracy < res.Clean-0.15 || res.ReDCaNe.MulSaving <= 0 {
		t.Fatalf("red-cane point = %+v (clean %.3f)", res.ReDCaNe, res.Clean)
	}
	// Within a 3 pp accuracy tolerance no uniform design should beat it.
	if !res.Dominates(0.03) {
		t.Logf("note: a uniform design matched red-cane this run:\n%s", res.Render())
	}
	if !strings.Contains(res.Render(), "uniform mul8u_QKX") {
		t.Fatal("render missing uniform rows")
	}
}

func TestStabilityAcrossSeeds(t *testing.T) {
	res, err := runner(t).Stability(DefaultBenchmark, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 4 {
		t.Fatalf("seeds = %d", res.Seeds)
	}
	// The headline ordering must hold in at least 3 of 4 seeds.
	if res.OrderingHolds < 3 {
		t.Fatalf("routing ≥ conv ordering held in only %d/4 seeds:\n%s",
			res.OrderingHolds, res.Render())
	}
	for _, g := range noise.Groups() {
		if res.MeanTol[g] < 0 || res.StdTol[g] < 0 {
			t.Fatalf("bad stats for %v: %g ± %g", g, res.MeanTol[g], res.StdTol[g])
		}
	}
}

func TestStabilityHonoursNonlinearityVariants(t *testing.T) {
	// Stability builds its analyzers like every other entry point, so the
	// configured softmax/squash variants change its measurements.
	r := runner(t)
	exact, err := r.Stability(DefaultBenchmark, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx := NewRunner(Config{Dir: r.Cfg.Dir, Quick: true, Seed: 42, Softmax: "base2", Squash: "sqnorm"})
	varied, err := approx.Stability(DefaultBenchmark, 2)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Render() == varied.Render() {
		t.Fatalf("stability ignores -softmax base2 -squash sqnorm:\n%s", varied.Render())
	}
}

func TestAblationRangeEstimator(t *testing.T) {
	res, err := runner(t).AblationRangeEstimator(DefaultBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Drops) != 2 {
		t.Fatalf("drops = %v", res.Drops)
	}
	// The robust estimator yields a smaller or equal effective range, so
	// the same NM must hurt no more than the min/max estimator (allowing
	// sampling jitter).
	if res.Drops["p99.9"] < res.Drops["minmax"]-0.05 {
		t.Fatalf("robust ranging hurt more than minmax: %v", res.Drops)
	}
	if !strings.Contains(res.Render(), "minmax") {
		t.Fatal("render broken")
	}
}
