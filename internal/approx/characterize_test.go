package approx

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"redcane/internal/tensor"
)

// characterizeRef is the per-multiplier Monte Carlo loop that
// CharacterizeAll replaced, kept verbatim as its bitwise reference: it
// redraws the operand stream and calls m.Mul for every pair.
func characterizeRef(m Multiplier, dist InputDist, chainLen, n int, seed uint64) ErrorProfile {
	if chainLen < 1 || n < 2 {
		panic(fmt.Sprintf("approx: invalid characterization chainLen=%d n=%d", chainLen, n))
	}
	rng := tensor.NewRNG(seed)
	errs := make([]float64, n)
	exact := make([]float64, n)
	for i := 0; i < n; i++ {
		var accApprox, accExact float64
		for k := 0; k < chainLen; k++ {
			a, b := dist.Sample(rng)
			accApprox += float64(m.Mul(a, b))
			accExact += float64(uint16(a) * uint16(b))
		}
		errs[i] = accApprox - accExact
		exact[i] = accExact
	}

	exactT := tensor.NewFrom(exact, n)
	r := exactT.Range()
	if r <= 0 {
		r = 1
	}

	lo, hi := tensor.NewFrom(errs, n).MinMax()
	if hi <= lo {
		hi = lo + 1
	}
	hist := tensor.NewHistogram(lo, hi, 64)
	hist.ObserveAll(errs)

	fit := tensor.FitGaussian(errs)
	return ErrorProfile{
		Component:   name(m),
		Dist:        dist.Name(),
		ChainLen:    chainLen,
		Samples:     n,
		Fit:         fit,
		Hist:        hist,
		OutputRange: r,
		NM:          fit.Std / r,
		NA:          fit.Mean / r,
	}
}

// offsetMul is a custom multiplier with a nonzero product for a zero
// operand and a full-scale 65,535 product at 255×255.
type offsetMul struct{}

func (offsetMul) Mul(a, b uint8) uint16 {
	if a == 255 && b == 255 {
		return 0xFFFF
	}
	return uint16(a)*uint16(b) + 37
}

func TestCharacterizeAllMatchesPerModelReference(t *testing.T) {
	var ms []Multiplier
	for _, c := range Library() {
		ms = append(ms, c.Model)
	}
	ms = append(ms, CompileLUT(DRUM{K: 4}), offsetMul{})
	dists := []InputDist{
		Uniform{},
		Empirical{Label: "skewed", A: []uint8{0, 0, 0, 1, 3, 7, 200, 255}, B: []uint8{0, 1, 2, 128, 255}},
		// Every exact chain sums to 0: the R(X) ≤ 0 → 1 branch.
		Empirical{Label: "zeros", A: []uint8{0}, B: []uint8{0}},
	}
	for _, d := range dists {
		for _, chainLen := range []int{1, 9, 81} {
			for _, n := range []int{2, 3000} {
				got := CharacterizeAll(ms, d, chainLen, n, 17)
				if len(got) != len(ms) {
					t.Fatalf("%s chain %d n %d: %d profiles for %d models", d.Name(), chainLen, n, len(got), len(ms))
				}
				for j, m := range ms {
					if want := characterizeRef(m, d, chainLen, n, 17); !reflect.DeepEqual(got[j], want) {
						t.Errorf("%s chain %d n %d: model %d (%s) differs from the reference:\n got %+v\nwant %+v",
							d.Name(), chainLen, n, j, name(m), got[j], want)
					}
				}
			}
		}
	}
}

func TestCharacterizeExactIsZeroError(t *testing.T) {
	p := Characterize(Exact{}, Uniform{}, 9, 5000, 1)
	if p.NM != 0 || p.NA != 0 {
		t.Fatalf("exact multiplier NM=%g NA=%g", p.NM, p.NA)
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a := Characterize(BrokenCarry{Depth: 7}, Uniform{}, 9, 2000, 42)
	b := Characterize(BrokenCarry{Depth: 7}, Uniform{}, 9, 2000, 42)
	if a.NM != b.NM || a.NA != b.NA {
		t.Fatal("characterization must be deterministic for a fixed seed")
	}
}

func TestErrorStdGrowsWithChainLength(t *testing.T) {
	// For near-independent per-MAC errors the accumulated std grows like
	// sqrt(k); the paper's Fig. 6 shows exactly this widening from 1 to 9
	// to 81 MACs. We assert monotone growth with a generous sqrt-band.
	m := BrokenCarry{Depth: 7, Compensate: true}
	var stds []float64
	for _, k := range []int{1, 9, 81} {
		p := Characterize(m, Uniform{}, k, 20000, 7)
		stds = append(stds, p.Fit.Std)
	}
	if !(stds[0] < stds[1] && stds[1] < stds[2]) {
		t.Fatalf("error std not increasing with chain length: %v", stds)
	}
	ratio91 := stds[1] / stds[0]
	if ratio91 < 2 || ratio91 > 4.5 { // sqrt(9)=3 with tolerance
		t.Fatalf("9-MAC/1-MAC std ratio = %g, want ≈3", ratio91)
	}
	ratio819 := stds[2] / stds[1]
	if ratio819 < 2 || ratio819 > 4.5 { // sqrt(81/9)=3
		t.Fatalf("81-MAC/9-MAC std ratio = %g, want ≈3", ratio819)
	}
}

func TestAccumulatedErrorIsGaussianLike(t *testing.T) {
	// CLT: even strongly non-Gaussian single-multiplier errors become
	// Gaussian-like after 81 accumulations — the paper's key modeling
	// observation (31 of 35 components Gaussian-like).
	for _, c := range Library()[1:] {
		p := Characterize(c.Model, Uniform{}, 81, 20000, 3)
		if p.Fit.KS > 0.08 {
			t.Errorf("%s: 81-MAC error not Gaussian-like (KS=%g)", c.Name, p.Fit.KS)
		}
	}
}

func TestNMOrderingRoughlyTracksPower(t *testing.T) {
	// The cheapest components must be noisier than the most accurate
	// ones. We check the coarse ordering between the two ends of the
	// library rather than strict monotonicity (the paper's Table IV is
	// not strictly monotone either).
	lib := Library()
	first := Characterize(lib[1].Model, Uniform{}, 1, 20000, 5) // 14VP
	last := Characterize(lib[len(lib)-1].Model, Uniform{}, 1, 20000, 5)
	if first.NM >= last.NM {
		t.Fatalf("NM of most accurate (%g) >= cheapest (%g)", first.NM, last.NM)
	}
}

func TestMeasuredNMWithinBandOfPaper(t *testing.T) {
	// Each behavioral stand-in must land within a factor of 3 of the
	// paper's modeled NM for its component (or within 5e-4 absolute for
	// the nearly-exact ones).
	for _, c := range Library() {
		p := Characterize(c.Model, Uniform{}, 1, 30000, 11)
		if c.PaperNM == 0 {
			if p.NM != 0 {
				t.Errorf("%s: want exact, got NM=%g", c.Name, p.NM)
			}
			continue
		}
		if math.Abs(p.NM-c.PaperNM) < 5e-4 {
			continue
		}
		ratio := p.NM / c.PaperNM
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: measured NM %g vs paper %g (ratio %g)", c.Name, p.NM, c.PaperNM, ratio)
		}
	}
}

func TestEmpiricalDistSamplesFromPools(t *testing.T) {
	d := Empirical{Label: "test", A: []uint8{5}, B: []uint8{7}}
	rng := tensor.NewRNG(1)
	a, b := d.Sample(rng)
	if a != 5 || b != 7 {
		t.Fatalf("Sample = %d, %d", a, b)
	}
	if d.Name() != "test" {
		t.Fatalf("Name = %q", d.Name())
	}
}

func TestCharacterizeAllLabelsEachProfile(t *testing.T) {
	real := Empirical{Label: "lowvals", A: []uint8{0, 1, 2, 3, 10, 20}, B: []uint8{1, 2, 3}}
	ps := CharacterizeAll([]Multiplier{BrokenCarry{Depth: 6, Compensate: true}, DRUM{K: 6}}, real, 9, 5000, 2)
	for i, want := range []string{"broken6", "drum6"} {
		if ps[i].Component != want || ps[i].Dist != "lowvals" || ps[i].ChainLen != 9 || ps[i].Samples != 5000 {
			t.Fatalf("profile %d = %q/%q chain %d n %d", i, ps[i].Component, ps[i].Dist, ps[i].ChainLen, ps[i].Samples)
		}
	}
	if len(CharacterizeAll(nil, real, 9, 5000, 2)) != 0 {
		t.Fatal("no models must give no profiles")
	}
}

func TestCharacterizeInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Characterize(Exact{}, Uniform{}, 0, 100, 1)
}

func TestHistogramCoversAllSamples(t *testing.T) {
	p := Characterize(DRUM{K: 4}, Uniform{}, 1, 5000, 9)
	if p.Hist.N != 5000 {
		t.Fatalf("histogram N = %d", p.Hist.N)
	}
	total := 0
	for _, c := range p.Hist.Counts {
		total += c
	}
	if total != 5000 {
		t.Fatalf("histogram counts sum to %d", total)
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(Library()) != 15 {
		t.Fatalf("library size = %d, want 15 (Table IV)", len(Library()))
	}
	if Accurate().Name != "mul8u_1JFF" {
		t.Fatalf("accurate component = %s", Accurate().Name)
	}
	if _, err := ByName("mul8u_NOPE"); err == nil {
		t.Fatal("lookup of unknown component succeeded")
	}
	sorted := SortedByPower()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].PowerUW < sorted[i-1].PowerUW {
			t.Fatal("SortedByPower not ascending")
		}
	}
}

func TestPowerAreaReductionsMatchPaperHeadline(t *testing.T) {
	ngr, err := ByName("mul8u_NGR")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NGR saves 29 % power, 28 % area.
	if r := ngr.PowerReduction(); math.Abs(r-0.29) > 0.02 {
		t.Fatalf("NGR power reduction = %g", r)
	}
	if r := ngr.AreaReduction(); math.Abs(r-0.28) > 0.02 {
		t.Fatalf("NGR area reduction = %g", r)
	}
	if Accurate().PowerReduction() != 0 {
		t.Fatal("accurate component must have zero reduction")
	}
}

func TestLibraryIsCopy(t *testing.T) {
	l := Library()
	l[0].Name = "mutated"
	if Library()[0].Name != "mul8u_1JFF" {
		t.Fatal("Library must return a copy")
	}
}
