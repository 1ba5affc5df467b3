package energy

import (
	"math"
	"testing"
)

func TestCountsPlusScaleTotal(t *testing.T) {
	a := Counts{Add: 1, Mul: 2, Div: 3, Exp: 4, Sqrt: 5}
	b := a.Plus(a)
	if b.Mul != 4 || b.Sqrt != 10 {
		t.Fatalf("Plus = %+v", b)
	}
	s := a.Scale(3)
	if s.Add != 3 || s.Exp != 12 {
		t.Fatalf("Scale = %+v", s)
	}
	if a.Total() != 15 {
		t.Fatalf("Total = %g", a.Total())
	}
}

func TestTableIValues(t *testing.T) {
	// The embedded unit energies must match the paper's Table I exactly.
	if TableI.Add != 0.0202 || TableI.Mul != 0.5354 || TableI.Div != 1.0717 ||
		TableI.Exp != 0.1578 || TableI.Sqrt != 0.7805 {
		t.Fatalf("TableI = %+v", TableI)
	}
}

func TestEnergyLinearity(t *testing.T) {
	c := Counts{Add: 100, Mul: 10}
	e := Energy(c, TableI)
	want := 100*0.0202 + 10*0.5354
	if math.Abs(e-want) > 1e-12 {
		t.Fatalf("Energy = %g, want %g", e, want)
	}
	if Energy(c.Scale(2), TableI) != 2*e {
		t.Fatal("Energy must be linear in counts")
	}
}

func TestBreakdownSharesSumToOne(t *testing.T) {
	c := Counts{Add: 1.91e9, Mul: 2.15e9, Div: 4.17e6, Exp: 175e3, Sqrt: 502e3}
	b := ComputeBreakdown(c, TableI)
	sum := b.MulShare + b.AddShare + b.OtherShare
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %g", sum)
	}
}

func TestBreakdownMatchesPaperFig4(t *testing.T) {
	// With the paper's own Table I counts, multipliers must take ≈96 %
	// of energy, adders ≈3 %, the rest <1 % — exactly Fig. 4.
	c := Counts{Add: 1.91e9, Mul: 2.15e9, Div: 4.17e6, Exp: 175e3, Sqrt: 502e3}
	b := ComputeBreakdown(c, TableI)
	if b.MulShare < 0.95 || b.MulShare > 0.97 {
		t.Fatalf("mul share = %g, want ≈0.96", b.MulShare)
	}
	if b.AddShare < 0.02 || b.AddShare > 0.04 {
		t.Fatalf("add share = %g, want ≈0.03", b.AddShare)
	}
	if b.OtherShare >= 0.01 {
		t.Fatalf("other share = %g, want <0.01", b.OtherShare)
	}
}

func TestBreakdownEmptyCounts(t *testing.T) {
	if b := ComputeBreakdown(Counts{}, TableI); b.MulShare != 0 {
		t.Fatalf("empty breakdown = %+v", b)
	}
}

func TestScenariosFig5Shape(t *testing.T) {
	// NGR multiplier: −29.4 % power; 5LT-style adder: −63 %. On the
	// paper's Table I counts this must land near Fig. 5's bars:
	// XM ≈ −28.3 %, XA ≈ −1.9 %, XAM ≈ −30.2 %.
	c := Counts{Add: 1.91e9, Mul: 2.15e9, Div: 4.17e6, Exp: 175e3, Sqrt: 502e3}
	res := EvaluateScenarios(c, TableI, Scenarios(1-0.294, 0.37))
	byName := map[string]ScenarioResult{}
	for _, r := range res {
		byName[r.Scenario.Name] = r
	}
	if s := byName["Acc"].SavingVsAcc; s != 0 {
		t.Fatalf("Acc saving = %g", s)
	}
	if s := byName["XM"].SavingVsAcc; math.Abs(s-(-0.283)) > 0.01 {
		t.Fatalf("XM saving = %g, want ≈ -0.283", s)
	}
	if s := byName["XA"].SavingVsAcc; math.Abs(s-(-0.019)) > 0.01 {
		t.Fatalf("XA saving = %g, want ≈ -0.019", s)
	}
	if s := byName["XAM"].SavingVsAcc; math.Abs(s-(-0.302)) > 0.015 {
		t.Fatalf("XAM saving = %g, want ≈ -0.302", s)
	}
	// XAM must save more than XM, which saves far more than XA.
	if !(byName["XAM"].SavingVsAcc < byName["XM"].SavingVsAcc &&
		byName["XM"].SavingVsAcc < byName["XA"].SavingVsAcc) {
		t.Fatalf("scenario ordering broken: %+v", byName)
	}
}

func TestConv2DOps(t *testing.T) {
	c := Conv2DOps(4, 4, 8, 3, 3, 3)
	wantMACs := float64(4 * 4 * 8 * 3 * 3 * 3)
	if c.Mul != wantMACs || c.Add != wantMACs {
		t.Fatalf("Conv2DOps = %+v, want %g MACs", c, wantMACs)
	}
	if c.Div != 0 || c.Exp != 0 || c.Sqrt != 0 {
		t.Fatalf("conv must not use div/exp/sqrt: %+v", c)
	}
}

func TestSquashOpsPerVector(t *testing.T) {
	c := SquashOps(10, 8)
	if c.Sqrt != 10 {
		t.Fatalf("squash sqrt count = %g", c.Sqrt)
	}
	if c.Mul != 160 || c.Add != 80 || c.Div != 80 {
		t.Fatalf("SquashOps = %+v", c)
	}
}

func TestSoftmaxOps(t *testing.T) {
	c := SoftmaxOps(5, 10)
	if c.Exp != 50 || c.Div != 50 || c.Add != 45 {
		t.Fatalf("SoftmaxOps = %+v", c)
	}
}

func TestRoutingOpsComposition(t *testing.T) {
	c := RoutingOps(32, 10, 16)
	// Must include the softmax exps and the squash sqrts.
	if c.Exp != 320 {
		t.Fatalf("routing exp = %g", c.Exp)
	}
	if c.Sqrt != 10 {
		t.Fatalf("routing sqrt = %g", c.Sqrt)
	}
	// MACs: 2·32·10·16 from weighted sum + agreement, plus squash muls.
	if c.Mul < 2*32*10*16 {
		t.Fatalf("routing mul = %g too small", c.Mul)
	}
}

func TestCapsVotesOps(t *testing.T) {
	c := CapsVotesOps(512, 10, 8, 16)
	want := float64(512 * 10 * 8 * 16)
	if c.Mul != want || c.Add != want {
		t.Fatalf("CapsVotesOps = %+v", c)
	}
}
