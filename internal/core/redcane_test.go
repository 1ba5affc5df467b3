package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// trainedAnalyzer builds a small trained CapsNet on a 3-class digit
// problem once, shared across the package's tests.
var shared *Analyzer

func sharedAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	if shared != nil {
		return shared
	}
	full := datasets.MNISTLike(150, 60, 42)
	ds := filterClasses(full, 3)
	net, err := models.BuildInference(models.CapsNet([]int{1, 20, 20}, 3), 7)
	if err != nil {
		t.Fatal(err)
	}
	m := train.NewModel(net)
	sz := ds.Channels * ds.H * ds.W
	calib := tensor.NewFrom(ds.TrainX.Data[:16*sz], 16, ds.Channels, ds.H, ds.W)
	train.LSUVInit(m, calib, 0.5)
	train.Fit(m, ds, train.Config{Epochs: 10, BatchSize: 12, LR: 2e-3, Seed: 1, GradClip: 5})
	acc, err := (&Analyzer{Net: net, Data: ds}).Evaluate(context.Background(), nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("fixture model too weak: %.2f", acc)
	}
	shared = &Analyzer{
		Net:  net,
		Data: ds,
		Opts: Options{
			NMSweep:   []float64{0.5, 0.1, 0.01, 0},
			Trials:    2,
			Batch:     20,
			Threshold: 0.02,
			Seed:      5,
		},
	}
	return shared
}

func filterClasses(d *datasets.Dataset, k int) *datasets.Dataset {
	sz := d.Channels * d.H * d.W
	pick := func(x *tensor.Tensor, y []int) (*tensor.Tensor, []int) {
		var idxs []int
		for i, label := range y {
			if label < k {
				idxs = append(idxs, i)
			}
		}
		nx := tensor.New(len(idxs), d.Channels, d.H, d.W)
		ny := make([]int, len(idxs))
		for j, i := range idxs {
			copy(nx.Data[j*sz:], x.Data[i*sz:(i+1)*sz])
			ny[j] = y[i]
		}
		return nx, ny
	}
	out := &datasets.Dataset{
		Name: d.Name, ClassNames: d.ClassNames[:k],
		Channels: d.Channels, H: d.H, W: d.W,
	}
	out.TrainX, out.TrainY = pick(d.TrainX, d.TrainY)
	out.TestX, out.TestY = pick(d.TestX, d.TestY)
	return out
}

func TestExtractGroupsMatchesTableIII(t *testing.T) {
	a := sharedAnalyzer(t)
	groups := a.ExtractGroups()
	// CapsNet: Conv2D (MAC+act), Primary (MAC+act), ClassCaps (all 4).
	if len(groups[noise.MACOutputs]) != 3 {
		t.Fatalf("MAC sites = %v", groups[noise.MACOutputs])
	}
	if len(groups[noise.Activations]) != 3 {
		t.Fatalf("activation sites = %v", groups[noise.Activations])
	}
	if len(groups[noise.Softmax]) != 1 || groups[noise.Softmax][0].Layer != "ClassCaps" {
		t.Fatalf("softmax sites = %v", groups[noise.Softmax])
	}
	if len(groups[noise.LogitsUpdate]) != 1 {
		t.Fatalf("logits sites = %v", groups[noise.LogitsUpdate])
	}
}

func TestGroupwiseResilienceOrdering(t *testing.T) {
	// The paper's headline: routing groups (softmax, logits update)
	// tolerate more noise than MAC outputs.
	a := sharedAnalyzer(t)
	clean := oracleAccuracy(a, nil, nil)
	groups, err := a.AnalyzeGroups(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	tol := map[noise.Group]float64{}
	for _, g := range groups {
		tol[g.Group] = g.ToleratedNM
	}
	if tol[noise.Softmax] < tol[noise.MACOutputs] {
		t.Fatalf("softmax tolerated NM %.3f < MAC %.3f", tol[noise.Softmax], tol[noise.MACOutputs])
	}
	if tol[noise.LogitsUpdate] < tol[noise.MACOutputs] {
		t.Fatalf("logits tolerated NM %.3f < MAC %.3f", tol[noise.LogitsUpdate], tol[noise.MACOutputs])
	}
}

func TestSweepMonotoneAtExtremes(t *testing.T) {
	// Accuracy at the largest NM must not exceed clean accuracy by more
	// than noise jitter, and NM=0 must equal clean accuracy exactly.
	a := sharedAnalyzer(t)
	clean := oracleAccuracy(a, nil, nil)
	pts := mustSweep(t, a, noise.ForGroup(noise.MACOutputs), clean, 1)
	if pts[len(pts)-1].NM != 0 || pts[len(pts)-1].Accuracy != clean {
		t.Fatalf("zero-NM point = %+v, clean %g", pts[len(pts)-1], clean)
	}
	if pts[0].Accuracy > pts[len(pts)-1].Accuracy {
		t.Fatalf("NM=0.5 MAC-output noise did not hurt: %+v", pts)
	}
}

func TestToleratedNM(t *testing.T) {
	pts := []SweepPoint{
		{NM: 0.5, Drop: -0.5},
		{NM: 0.1, Drop: -0.05},
		{NM: 0.01, Drop: -0.005},
		{NM: 0, Drop: 0},
	}
	if got := toleratedNM(pts, 0.01); got != 0.01 {
		t.Fatalf("toleratedNM = %g, want 0.01", got)
	}
	if got := toleratedNM(pts, 0.1); got != 0.1 {
		t.Fatalf("toleratedNM = %g, want 0.1", got)
	}
	if got := toleratedNM(pts, 0.9); got != 0.5 {
		t.Fatalf("toleratedNM = %g, want 0.5", got)
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median of empty != 0")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("median wrong")
	}
}

func TestProfileLibraryCoversAllComponents(t *testing.T) {
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	if len(profiles) != len(approx.Library()) {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if profiles[0].Component.Name != "mul8u_1JFF" || profiles[0].NM != 0 {
		t.Fatalf("accurate profile = %+v", profiles[0])
	}
}

func TestProfileLibraryDepthsMatchesPerComponentLoop(t *testing.T) {
	// The nested loop ProfileLibraryDepths replaced: one Characterize per
	// component per chain length, each on its own redrawn stream.
	dist := approx.Empirical{Label: "pool", A: []uint8{0, 0, 1, 5, 9, 60, 255}, B: []uint8{3, 7, 128, 200}}
	var want []ComponentProfile
	for _, cl := range LibraryChainLens {
		for _, c := range approx.Library() {
			p := approx.Characterize(c.Model, dist, cl, 500, 9)
			want = append(want, ComponentProfile{Component: c, NM: p.NM, NA: p.NA, ChainLen: cl})
		}
	}
	if got := ProfileLibraryDepths(dist, LibraryChainLens, 500, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("ProfileLibraryDepths differs from the per-component loop:\n got %+v\nwant %+v", got, want)
	}
}

func TestFullRunReportShape(t *testing.T) {
	a := sharedAnalyzer(t)
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	r := a.Run(profiles)

	if r.CleanAccuracy < 0.8 {
		t.Fatalf("clean accuracy %.2f", r.CleanAccuracy)
	}
	if len(r.Groups) != 4 {
		t.Fatalf("groups = %d", len(r.Groups))
	}
	// Every site must receive a component.
	siteCount := 0
	for _, g := range noise.Groups() {
		siteCount += len(a.ExtractGroups()[g])
	}
	if len(r.Choices) != siteCount {
		t.Fatalf("choices = %d, sites = %d", len(r.Choices), siteCount)
	}
	// Components must fit their budgets (or be the accurate fallback).
	for _, c := range r.Choices {
		if c.ComponentNM > c.BudgetNM && c.Component.Name != "mul8u_1JFF" {
			t.Fatalf("choice %+v exceeds budget", c)
		}
	}
	// The validated design must not collapse: within 10 pp of clean.
	if r.ValidatedAccuracy < r.CleanAccuracy-0.10 {
		t.Fatalf("validated %.3f vs clean %.3f", r.ValidatedAccuracy, r.CleanAccuracy)
	}
	if r.MulEnergySaving < 0 || r.MulEnergySaving > 1 {
		t.Fatalf("saving = %g", r.MulEnergySaving)
	}

	text := FormatReport(r)
	for _, want := range []string{"clean accuracy", "group-wise resilience", "selected components", "validated accuracy"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestResilientGroupsGetAggressiveComponents(t *testing.T) {
	a := sharedAnalyzer(t)
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	r := a.Run(profiles)

	power := map[noise.Group]float64{}
	count := map[noise.Group]int{}
	for _, c := range r.Choices {
		power[c.Site.Group] += c.Component.PowerUW
		count[c.Site.Group]++
	}
	avg := func(g noise.Group) float64 { return power[g] / float64(count[g]) }
	// Softmax sites must on average get cheaper components than MAC
	// output sites — the paper's design outcome.
	if avg(noise.Softmax) > avg(noise.MACOutputs) {
		t.Fatalf("softmax avg power %.0f > MAC avg power %.0f", avg(noise.Softmax), avg(noise.MACOutputs))
	}
}

func TestPerSiteInjectorOnlyTouchesConfiguredSites(t *testing.T) {
	inj := noise.NewPerSite(map[noise.Site]noise.Params{
		{Layer: "A", Group: noise.MACOutputs}: {NM: 0.5},
	}, 1)
	x := tensor.New(50).FillUniform(tensor.NewRNG(2), 0, 1)
	before := x.Clone()
	inj.Inject(noise.Site{Layer: "B", Group: noise.MACOutputs}, x)
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			t.Fatal("unconfigured site perturbed")
		}
	}
	inj.Inject(noise.Site{Layer: "A", Group: noise.MACOutputs}, x)
	changed := false
	for i := range x.Data {
		if x.Data[i] != before.Data[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("configured site not perturbed")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if len(o.NMSweep) != len(PaperNMSweep) || o.Trials != 1 || o.Batch != 32 || o.Threshold != 0.01 {
		t.Fatalf("defaults = %+v", o)
	}
}
