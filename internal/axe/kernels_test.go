package axe

import (
	"math"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/tensor"
)

// weirdMul is a deliberately hostile multiplier: mul(0, c) ≠ 0, so the
// code-domain GEMM's padded zero-code products are wrong unless the
// hoisted border correction subtracts them. Only tests use it; real
// approximate multipliers may also violate mul(0, c) = 0. Its largest
// product, 255·255+7+3 = 65035, fits a LUT entry.
type weirdMul struct{}

func (weirdMul) Mul(a, b uint8) uint16 { return uint16(a)*uint16(b) + uint16(b&7) + 3 }

// exactRef is the reference kernels' exact multiplier (any wordlength
// up to 16 bits).
func exactRef(a, b uint16) uint32 { return uint32(a) * uint32(b) }

// kernelUnderTest returns the optimized kernels' LUT for m (nil = exact)
// and the reference kernels' multiplier, taken from the behavioral
// model itself rather than the compiled table.
func kernelUnderTest(m approx.Multiplier) (*approx.LUT, func(a, b uint16) uint32) {
	if m == nil {
		return nil, exactRef
	}
	return approx.CompileLUT(m), func(a, b uint16) uint32 { return uint32(m.Mul(uint8(a), uint8(b))) }
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", what, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// checkQuantConv runs the optimized kernel against the naive reference
// for one multiplier (nil = exact) over a spread of conv shapes, with
// and without scratch. The exact path runs on the float conv kernel, so
// the shapes reach each of its paths: the direct 3×3 (3×3 stride 1 on
// planes ≥ 12 wide, padded and not, with even and odd channel counts
// once the all-ones channel is added), the direct 1×1, and the im2col
// GEMM with and without full 8-channel tiles.
func checkQuantConv(t *testing.T, name string, m approx.Multiplier, bits uint) {
	t.Helper()
	lut, mul := kernelUnderTest(m)
	cases := []struct {
		n, c, h, w, oc, k, stride, pad int
	}{
		{1, 1, 5, 5, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 9, 9, 3, 9, 1, 0},
		{2, 4, 8, 8, 6, 3, 2, 1},
		{1, 1, 4, 4, 2, 1, 1, 0},
		{3, 2, 7, 5, 5, 3, 2, 2},
		{2, 3, 7, 7, 9, 3, 2, 1},
		{1, 2, 6, 6, 8, 3, 1, 1},
		{1, 3, 13, 14, 4, 3, 1, 1},
		{2, 2, 12, 12, 5, 3, 1, 0},
	}
	for i, tc := range cases {
		x := randT(uint64(i+1), tc.n, tc.c, tc.h, tc.w)
		w := randT(uint64(i+100), tc.oc, tc.c, tc.k, tc.k)
		bias := randT(uint64(i+200), tc.oc)
		for _, b := range []*tensor.Tensor{bias, nil} {
			ref := quantConv2DRef(mul, x, w, b, tc.stride, tc.pad, bits)
			requireSameBits(t, name, quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, nil, nil), ref)

			s := tensor.NewScratch()
			got := quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, s, nil)
			requireSameBits(t, name+" scratch", got, ref)
			s.Release(got)
			requireSameBits(t, name+" scratch reuse", quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, s, nil), ref)
		}
	}
}

func TestQuantConv2DBitwiseVsRefExact(t *testing.T) { checkQuantConv(t, "exact", nil, 8) }

func TestQuantConv2DBitwiseVsRefExact12Bit(t *testing.T) {
	checkQuantConv(t, "exact12", nil, 12)
}

func TestQuantConv2DBitwiseVsRefExact16Bit(t *testing.T) {
	checkQuantConv(t, "exact16", nil, 16)
}

func TestQuantConv2DBitwiseVsRefLUT(t *testing.T) {
	checkQuantConv(t, "lut", approx.BrokenCarry{Depth: 6, Compensate: true}, 8)
}

func TestQuantConv2DBitwiseVsRefWeirdMul(t *testing.T) {
	// mul(0, c) ≠ 0: the padded-zero correction must be exact.
	checkQuantConv(t, "weird", weirdMul{}, 8)
}

// nearMax returns a tensor whose b-bit codes are nearly all 2^b−1: ones
// except a zero (the calibrated minimum) and a few mid-range values.
func nearMax(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	t.Data[0] = 0
	for i := 7; i < len(t.Data); i += 997 {
		t.Data[i] = 0.5
	}
	return t
}

func TestQuantKernelsWorstCaseMagnitudeBitwise(t *testing.T) {
	// Primary's patch (32 channels of 9×9 taps) at 16 bits with codes at
	// the top of the range: the largest sums the exact float path meets
	// in the shipped models must still match the int64 reference.
	x := nearMax(2, 32, 10, 10)
	w := nearMax(3, 32, 9, 9)
	bias := randT(5, 3)
	u := nearMax(2, 18, 8)
	uw := nearMax(18, 10, 16, 8)
	for _, bits := range []uint{12, 16} {
		for _, pad := range []int{0, 1} {
			requireSameBits(t, "worst-case conv",
				quantConv2D(nil, x, w, bias, 1, pad, bits, nil, nil),
				quantConv2DRef(exactRef, x, w, bias, 1, pad, bits))
		}
		requireSameBits(t, "worst-case votes",
			quantCapsVotes(nil, u, uw, bits, nil, nil),
			quantCapsVotesRef(exactRef, u, uw, bits))
	}
	// The LUT kernel packs two 32-bit sums per register: a row of more
	// than 2^16 near-maximal products would carry across lanes unless
	// the kernel flushes them in chunks.
	long := 1<<16 + 999
	lut, mul := kernelUnderTest(approx.Exact{})
	lu, lw := nearMax(1, 1, long), nearMax(1, 1, 9, long)
	requireSameBits(t, "long LUT votes",
		quantCapsVotes(lut, lu, lw, 8, nil, nil), quantCapsVotesRef(mul, lu, lw, 8))
}

func TestFloatExactGuardBoundary(t *testing.T) {
	// The guard admits a patch exactly when patch·(2^b−1)² ≤ 2^53.
	for bits := uint(1); bits <= 16; bits++ {
		m := uint64(1)<<bits - 1
		edge := (1 << 53) / (m * m)
		if edge*m*m > 1<<53 || (edge+1)*m*m <= 1<<53 {
			t.Fatalf("bits=%d: edge %d is not the boundary", bits, edge)
		}
		if edge >= math.MaxInt32 {
			continue // the boundary lies past any patch a 32-bit int holds
		}
		if !floatExact(int(edge), bits) || floatExact(int(edge)+1, bits) {
			t.Fatalf("bits=%d: guard boundary is not %d", bits, edge)
		}
	}
	if floatExact(1, 0) || floatExact(1, 17) {
		t.Fatal("guard must reject wordlengths outside 1–16")
	}
	// At 16 bits the boundary sits just above 2^21 terms; one more term
	// and both exact kernels refuse the call instead of rounding.
	edge := int((1 << 53) / (uint64(0xFFFF) * 0xFFFF))
	if edge < 1<<21 || edge > 1<<21+100 {
		t.Fatalf("16-bit boundary %d, want just above 2^21", edge)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic past the exactness boundary", what)
			}
		}()
		f()
	}
	big := tensor.New(1, edge+1, 1, 1)
	mustPanic("conv", func() { quantConv2D(nil, big, big, nil, 1, 0, 16, nil, nil) })
	mustPanic("votes", func() {
		quantCapsVotes(nil, big.Reshape(1, 1, edge+1), big.Reshape(1, 1, 1, edge+1), 16, nil, nil)
	})
}

func TestQuantCapsVotesBitwiseVsRef(t *testing.T) {
	u := randT(31, 3, 18, 8)
	w := randT(32, 18, 10, 16, 8)
	odd := randT(33, 18, 3, 5, 8) // 15 vote rows: a partial 8-row tile
	for _, tc := range []struct {
		name string
		m    approx.Multiplier
		bits uint
	}{
		{"exact", nil, 8},
		{"exact12", nil, 12},
		{"exact16", nil, 16},
		{"lut", approx.BrokenCarry{Depth: 4}, 8},
		{"weird", weirdMul{}, 8},
	} {
		lut, mul := kernelUnderTest(tc.m)
		for _, ww := range []*tensor.Tensor{w, odd} {
			want := quantCapsVotesRef(mul, u, ww, tc.bits)
			requireSameBits(t, "votes "+tc.name, quantCapsVotes(lut, u, ww, tc.bits, nil, nil), want)
			s := tensor.NewScratch()
			s.Release(quantCapsVotes(lut, u, ww, tc.bits, s, nil))
			requireSameBits(t, "votes scratch reuse "+tc.name, quantCapsVotes(lut, u, ww, tc.bits, s, nil), want)
		}
	}
}
