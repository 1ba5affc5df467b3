package approx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactMatchesHardwareMultiply(t *testing.T) {
	f := func(a, b uint8) bool {
		return Exact{}.Mul(a, b) == uint16(a)*uint16(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProductTruncErrorBound(t *testing.T) {
	for _, bits := range []uint{1, 4, 7} {
		m := ProductTrunc{Bits: bits}
		bound := float64(int(1)<<bits - 1)
		for a := 0; a < 256; a += 3 {
			for b := 0; b < 256; b += 7 {
				e := ErrorOf(m, uint8(a), uint8(b))
				if e > 0 || -e > bound {
					t.Fatalf("ptrunc%d error %g out of [-%g, 0] at %d×%d", bits, e, bound, a, b)
				}
			}
		}
	}
}

func TestProductTruncZeroBitsIsExact(t *testing.T) {
	m := ProductTrunc{Bits: 0, Compensate: true}
	for a := 0; a < 256; a += 5 {
		for b := 0; b < 256; b += 5 {
			if m.Mul(uint8(a), uint8(b)) != uint16(a)*uint16(b) {
				t.Fatalf("ptrunc0 not exact at %d×%d", a, b)
			}
		}
	}
}

func TestProductTruncCompensationCentersError(t *testing.T) {
	raw := Characterize(ProductTrunc{Bits: 6}, Uniform{}, 1, 20000, 1)
	comp := Characterize(ProductTrunc{Bits: 6, Compensate: true}, Uniform{}, 1, 20000, 1)
	if math.Abs(comp.Fit.Mean) >= math.Abs(raw.Fit.Mean) {
		t.Fatalf("compensation did not reduce bias: |%g| >= |%g|", comp.Fit.Mean, raw.Fit.Mean)
	}
}

func TestOperandTruncZeroOperandsZeroProduct(t *testing.T) {
	m := OperandTrunc{ABits: 3, BBits: 3}
	if m.Mul(0, 200) != 0 || m.Mul(200, 0) != 0 {
		t.Fatal("zero operand must give zero product without compensation")
	}
}

func TestBrokenCarrySubsetOfExact(t *testing.T) {
	// Without compensation the broken-array product never exceeds the
	// exact product (only partial products are dropped).
	m := BrokenCarry{Depth: 8}
	for a := 0; a < 256; a += 3 {
		for b := 0; b < 256; b += 5 {
			if m.Mul(uint8(a), uint8(b)) > uint16(a)*uint16(b) {
				t.Fatalf("broken-array overestimates at %d×%d", a, b)
			}
		}
	}
}

func TestBrokenCarryDepthZeroIsExact(t *testing.T) {
	m := BrokenCarry{Depth: 0}
	f := func(a, b uint8) bool { return m.Mul(a, b) == uint16(a)*uint16(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDRUMExactForSmallOperands(t *testing.T) {
	// Operands that fit in K bits are untouched.
	m := DRUM{K: 6}
	for a := 0; a < 64; a += 5 {
		for b := 0; b < 64; b += 7 {
			if m.Mul(uint8(a), uint8(b)) != uint16(a)*uint16(b) {
				t.Fatalf("DRUM altered small product %d×%d", a, b)
			}
		}
	}
}

func TestDRUMRelativeErrorBound(t *testing.T) {
	// DRUM's relative error is bounded by ~2^-K per operand.
	m := DRUM{K: 4}
	maxRel := 0.0
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := float64(a * b)
			rel := math.Abs(ErrorOf(m, uint8(a), uint8(b))) / p
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel > 0.14 { // 2·2^-4 + cross term, with margin
		t.Fatalf("DRUM(4) max relative error %g too large", maxRel)
	}
}

func TestMitchellUnderestimates(t *testing.T) {
	m := Mitchell{}
	for a := 1; a < 256; a += 3 {
		for b := 1; b < 256; b += 5 {
			e := ErrorOf(m, uint8(a), uint8(b))
			p := float64(a * b)
			if e > 0.01*p+2 {
				t.Fatalf("Mitchell overestimates at %d×%d: err=%g", a, b, e)
			}
			if -e > 0.12*p+2 {
				t.Fatalf("Mitchell error beyond -11%% bound at %d×%d: err=%g p=%g", a, b, e, p)
			}
		}
	}
}

func TestMitchellExactOnPowersOfTwo(t *testing.T) {
	m := Mitchell{}
	for _, a := range []uint8{1, 2, 4, 8, 16, 32, 64, 128} {
		for _, b := range []uint8{1, 2, 4, 8, 16, 32, 64, 128} {
			if m.Mul(a, b) != uint16(a)*uint16(b) {
				t.Fatalf("Mitchell wrong on powers of two %d×%d: %d", a, b, m.Mul(a, b))
			}
		}
	}
}

func TestZeroInputAlwaysZeroOrSmall(t *testing.T) {
	// 0×0 may be nonzero for compensated models (the paper's cheapest
	// components have NA up to +0.05, i.e. mean error ≈ +3000), but must
	// stay far below full scale; exact components map to 0.
	for _, c := range Library() {
		got := c.Model.Mul(0, 0)
		if got > 8192 {
			t.Fatalf("%s: 0×0 = %d", c.Name, got)
		}
	}
	if (Exact{}).Mul(0, 0) != 0 {
		t.Fatal("exact 0×0 != 0")
	}
}

func TestMREDOrderingTracksAggressiveness(t *testing.T) {
	// Within one structural family, more dropped bits means more error.
	if Measure(ProductTrunc{Bits: 3}).MRED >= Measure(ProductTrunc{Bits: 6}).MRED {
		t.Fatal("ptrunc MRED not monotone in bits")
	}
	if Measure(BrokenCarry{Depth: 4}).MRED >= Measure(BrokenCarry{Depth: 8}).MRED {
		t.Fatal("broken-array MRED not monotone in depth")
	}
	if Measure(DRUM{K: 6}).MRED >= Measure(DRUM{K: 3}).MRED {
		t.Fatal("DRUM MRED not monotone in kept bits")
	}
}

func TestLUTMatchesModel(t *testing.T) {
	for _, m := range []Multiplier{Exact{}, BrokenCarry{Depth: 7, Compensate: true}, Mitchell{}} {
		lut := CompileLUT(m)
		f := func(a, b uint8) bool { return lut.Mul(a, b) == m.Mul(a, b) }
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
	}
}

func TestExactAdder(t *testing.T) {
	f := func(a, b uint16) bool {
		return ExactAdder{}.Add(uint32(a), uint32(b)) == uint32(a)+uint32(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLowerORAdderHighBitsExact(t *testing.T) {
	m := LowerORAdder{Bits: 5}
	f := func(a, b uint16) bool {
		got := m.Add(uint32(a), uint32(b))
		exact := uint32(a) + uint32(b)
		// LOA's error is confined to the low Bits plus the lost carry;
		// bounded by 2^(Bits+1).
		diff := int64(got) - int64(exact)
		if diff < 0 {
			diff = -diff
		}
		return diff < 1<<6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLowerORAdderZeroBitsExact(t *testing.T) {
	m := LowerORAdder{Bits: 0}
	if m.Add(123, 456) != 579 {
		t.Fatal("LOA with 0 bits must be exact")
	}
}

func TestAdderLibraryLookup(t *testing.T) {
	if _, ok := AdderByName("add8u_5LT"); !ok {
		t.Fatal("missing add8u_5LT")
	}
	if _, ok := AdderByName("nope"); ok {
		t.Fatal("lookup of unknown adder succeeded")
	}
	acc, _ := AdderByName("add8u_ACC")
	if acc.EnergyScale != 1 {
		t.Fatalf("accurate adder energy scale = %g", acc.EnergyScale)
	}
}

// The loops the models ran before the subtractive broken array and
// math/bits, kept verbatim as references for the exhaustive tests below.

func brokenCarryMulRef(m BrokenCarry, a, b uint8) uint16 {
	var p uint32
	for i := uint(0); i < 8; i++ {
		if a&(1<<i) == 0 {
			continue
		}
		for j := uint(0); j < 8; j++ {
			if b&(1<<j) == 0 {
				continue
			}
			if i+j < m.Depth {
				continue
			}
			p += 1 << (i + j)
		}
	}
	if m.Compensate && p != 0 {
		// Each dropped cell contributes 2^(i+j) with probability 1/4;
		// gated on a nonzero surviving product (see ProductTrunc.Mul).
		var comp float64
		for i := uint(0); i < 8; i++ {
			for j := uint(0); j < 8; j++ {
				if i+j < m.Depth {
					comp += float64(uint32(1)<<(i+j)) / 4
				}
			}
		}
		p += uint32(comp)
		if p > 0xFFFF {
			p = 0xFFFF
		}
	}
	return uint16(p)
}

func leadingZeros32Ref(v uint32) int {
	n := 0
	for i := 31; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 32
}

func drumMulRef(m DRUM, a, b uint8) uint16 {
	ra, sa := drumReduceRef(uint32(a), m.K)
	rb, sb := drumReduceRef(uint32(b), m.K)
	p := (ra * rb) << (sa + sb)
	if p > 0xFFFF {
		p = 0xFFFF
	}
	return uint16(p)
}

func drumReduceRef(v uint32, k uint) (reduced uint32, shift uint) {
	if v == 0 {
		return 0, 0
	}
	msb := uint(31 - leadingZeros32Ref(v))
	if msb < k {
		return v, 0
	}
	shift = msb - k + 1
	reduced = v >> shift
	// Round to nearest using the first dropped bit.
	if v&(1<<(shift-1)) != 0 {
		reduced++
	}
	return reduced, shift
}

func mitchellMulRef(a, b uint8) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	la := mitchellLogRef(uint32(a))
	lb := mitchellLogRef(uint32(b))
	sum := la + lb
	p := mitchellExp(sum)
	if p > 0xFFFF {
		p = 0xFFFF
	}
	return uint16(p)
}

func mitchellLogRef(v uint32) uint32 {
	msb := uint(31 - leadingZeros32Ref(v))
	frac := (v - (1 << msb)) << (16 - msb) // mantissa scaled to 16 bits
	return uint32(msb)<<16 | frac
}

// forAllOperands calls f on every (a, b) in 256².
func forAllOperands(f func(a, b uint8)) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			f(uint8(a), uint8(b))
		}
	}
}

func TestBrokenCarryMatchesCellLoop(t *testing.T) {
	for depth := uint(0); depth <= 16; depth++ {
		for _, comp := range []bool{false, true} {
			m := BrokenCarry{Depth: depth, Compensate: comp}
			forAllOperands(func(a, b uint8) {
				if got, want := m.Mul(a, b), brokenCarryMulRef(m, a, b); got != want {
					t.Fatalf("%+v: %d×%d = %d, cell loop %d", m, a, b, got, want)
				}
			})
		}
	}
}

func TestDRUMMatchesLoopReference(t *testing.T) {
	for k := uint(1); k <= 8; k++ {
		m := DRUM{K: k}
		forAllOperands(func(a, b uint8) {
			if got, want := m.Mul(a, b), drumMulRef(m, a, b); got != want {
				t.Fatalf("DRUM{K: %d}: %d×%d = %d, reference %d", k, a, b, got, want)
			}
		})
	}
}

func TestMitchellMatchesLoopReference(t *testing.T) {
	forAllOperands(func(a, b uint8) {
		if got, want := (Mitchell{}).Mul(a, b), mitchellMulRef(a, b); got != want {
			t.Fatalf("Mitchell: %d×%d = %d, reference %d", a, b, got, want)
		}
	})
}
