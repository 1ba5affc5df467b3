package approx

import (
	"math"
	"testing"
)

func TestMeasureExactMultiplier(t *testing.T) {
	m := Measure(Exact{})
	if m.MAE != 0 || m.WCE != 0 || m.ErrorRate != 0 || m.MRED != 0 || m.Bias != 0 {
		t.Fatalf("exact metrics = %+v", m)
	}
}

func TestMeasureProductTruncBounds(t *testing.T) {
	m := Measure(ProductTrunc{Bits: 6})
	if m.WCE >= 64 {
		t.Fatalf("WCE = %g, truncating 6 bits bounds |err| < 64", m.WCE)
	}
	if m.Bias >= 0 {
		t.Fatalf("uncompensated truncation must be negatively biased: %g", m.Bias)
	}
	if m.ErrorRate <= 0 || m.ErrorRate > 1 {
		t.Fatalf("error rate = %g", m.ErrorRate)
	}
	// MAE ≤ WCE always.
	if m.MAE > m.WCE {
		t.Fatalf("MAE %g > WCE %g", m.MAE, m.WCE)
	}
}

func TestMeasureCompensationReducesBias(t *testing.T) {
	raw := Measure(BrokenCarry{Depth: 7})
	comp := Measure(BrokenCarry{Depth: 7, Compensate: true})
	if math.Abs(comp.Bias) >= math.Abs(raw.Bias) {
		t.Fatalf("compensated bias %g not smaller than raw %g", comp.Bias, raw.Bias)
	}
}

func TestMeasureOrderingAcrossLibrary(t *testing.T) {
	// The most accurate approximate component must have lower MAE than
	// the crudest one.
	first, err := ByName("mul8u_14VP")
	if err != nil {
		t.Fatal(err)
	}
	last, err := ByName("mul8u_QKX")
	if err != nil {
		t.Fatal(err)
	}
	if Measure(first.Model).MAE >= Measure(last.Model).MAE {
		t.Fatal("library MAE ordering broken")
	}
}
