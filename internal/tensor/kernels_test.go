package tensor

import (
	"runtime"
	"testing"
)

// The optimized kernels must match their naive *_ref.go oracles
// bit-for-bit — identical summation order, not a tolerance. See
// matmul_ref.go and conv_ref.go for the order each oracle defines.

// lcg is a tiny deterministic generator for property-test shapes.
type lcg uint64

func (r *lcg) next(n int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int(uint64(*r)>>33) % n
}

// zeroSome forces exact zeros into t (as ReLU activations produce), so
// the ±0 reasoning in the oracle docs is exercised, not just assumed.
func zeroSome(t *Tensor, r *lcg) {
	for i := range t.Data {
		if r.next(4) == 0 {
			t.Data[i] = 0
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want *Tensor) {
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

func TestDotBitwiseVsRef(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 144, 145, 146, 147, 513} {
		a := New(n+1).FillNormal(NewRNG(uint64(n+1)), 0, 1)
		b := New(n+1).FillNormal(NewRNG(uint64(n+77)), 0, 1)
		got := Dot(a.Data[:n], b.Data[:n])
		want := DotRef(a.Data[:n], b.Data[:n])
		if got != want {
			t.Fatalf("n=%d: Dot %v != DotRef %v", n, got, want)
		}
	}
}

func FuzzDot(f *testing.F) {
	f.Add(int64(1), 17)
	f.Add(int64(99), 256)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		a := New(n+1).FillNormal(NewRNG(uint64(seed)), 0, 1)
		b := New(n+1).FillNormal(NewRNG(uint64(seed)+13), 0, 1)
		if got, want := Dot(a.Data[:n], b.Data[:n]), DotRef(a.Data[:n], b.Data[:n]); got != want {
			t.Fatalf("n=%d: Dot %v != DotRef %v", n, got, want)
		}
	})
}

func TestMatMulVariantsBitwiseVsRef(t *testing.T) {
	r := lcg(42)
	for it := 0; it < 40; it++ {
		m, k, n := 1+r.next(40), 1+r.next(50), 1+r.next(40)
		a := New(m, k).FillNormal(NewRNG(uint64(it+1)), 0, 1)
		b := New(k, n).FillNormal(NewRNG(uint64(it+100)), 0, 1)
		zeroSome(a, &r)
		zeroSome(b, &r)

		requireSameBits(t, "MatMul", MatMul(a, b), MatMulRef(a, b))

		bT := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bT.Data[j*k+i] = b.Data[i*n+j]
			}
		}
		requireSameBits(t, "MatMulT", MatMulT(a, bT), MatMulTRef(a, bT))

		s := NewScratch()
		got := MatMulTScratch(a, bT, s)
		requireSameBits(t, "MatMulTScratch", got, MatMulTRef(a, bT))
		s.Release(got)
		// Second call reuses the arena buffer; must still be exact.
		requireSameBits(t, "MatMulTScratch reuse", MatMulTScratch(a, bT, s), MatMulTRef(a, bT))

		aT := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				aT.Data[j*m+i] = a.Data[i*k+j]
			}
		}
		requireSameBits(t, "MatMulAT", MatMulAT(aT, b), MatMulATRef(aT, b))
	}
}

func TestMatVecTBitwiseVsRef(t *testing.T) {
	r := lcg(9)
	for it := 0; it < 25; it++ {
		rows, k := 1+r.next(30), 1+r.next(40)
		a := New(k).FillNormal(NewRNG(uint64(it+1)), 0, 1)
		w := New(rows, k).FillNormal(NewRNG(uint64(it+50)), 0, 1)
		zeroSome(a, &r)
		dst := make([]float64, rows)
		MatVecT(dst, a.Data, w.Data, k)
		for j := 0; j < rows; j++ {
			if want := DotRef(a.Data, w.Data[j*k:(j+1)*k]); dst[j] != want {
				t.Fatalf("it=%d row %d: %v != %v", it, j, dst[j], want)
			}
		}
	}
}

func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	// parallelRows splits by GOMAXPROCS; results must not depend on it.
	a := New(128, 33).FillNormal(NewRNG(1), 0, 1)
	b := New(128, 17).FillNormal(NewRNG(2), 0, 1)
	c := New(9, 17).FillNormal(NewRNG(3), 0, 1)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := MatMulAT(a, b)
	oneT := MatMulT(b, c)
	runtime.GOMAXPROCS(4)
	many := MatMulAT(a, b)
	manyT := MatMulT(b, c)
	requireSameBits(t, "MatMulAT workers", many, one)
	requireSameBits(t, "MatMulT workers", manyT, oneT)
}

func TestConv2DBitwiseVsRef(t *testing.T) {
	cases := []struct {
		n, c, h, w, oc, k, stride, pad int
	}{
		// Direct 3×3 stride-1 path (wide planes), even/odd outCh, pads 0..2.
		{3, 2, 16, 16, 8, 3, 1, 1},
		{1, 2, 6, 14, 5, 3, 1, 0},
		{2, 1, 5, 13, 3, 3, 1, 2},
		{1, 4, 3, 12, 2, 3, 1, 1},
		{1, 1, 1, 16, 1, 3, 1, 1}, // height 1: partial tap rows only
		// 3×3 stride-1 on narrow planes: routed to the GEMM path.
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 6, 7, 5, 3, 1, 0},
		{2, 1, 5, 5, 3, 3, 1, 2},
		{1, 2, 4, 1, 2, 3, 1, 1},
		// 1×1 kernels: GEMM path.
		{2, 3, 5, 6, 4, 1, 1, 0},
		{1, 1, 4, 4, 3, 1, 1, 0},
		// GEMM path: other kernels, strides, pads.
		{1, 2, 9, 9, 3, 9, 1, 0},
		{2, 4, 8, 8, 6, 3, 2, 1},
		{1, 3, 10, 10, 17, 5, 2, 2}, // outCh not a multiple of 8
		{2, 2, 7, 5, 2, 3, 2, 1},
		{1, 1, 6, 6, 9, 1, 2, 0}, // 1×1 stride 2
		{1, 2, 8, 8, 16, 4, 3, 1},
	}
	r := lcg(7)
	for i, tc := range cases {
		x := New(tc.n, tc.c, tc.h, tc.w).FillNormal(NewRNG(uint64(i+1)), 0, 1)
		zeroSome(x, &r) // ReLU-style exact zeros
		w := New(tc.oc, tc.c, tc.k, tc.k).FillNormal(NewRNG(uint64(i+100)), 0, 1)
		bias := New(tc.oc).FillNormal(NewRNG(uint64(i+200)), 0, 1)
		for _, b := range []*Tensor{bias, nil} {
			ref := Conv2DRef(x, w, b, tc.stride, tc.pad)
			requireSameBits(t, "Conv2D", Conv2D(x, w, b, tc.stride, tc.pad), ref)
			s := NewScratch()
			got := Conv2DScratch(x, w, b, tc.stride, tc.pad, s)
			requireSameBits(t, "Conv2DScratch", got, ref)
			// Reuse the arena: recycled im2col buffers must not leak state.
			requireSameBits(t, "Conv2DScratch reuse", Conv2DScratch(x, w, b, tc.stride, tc.pad, s), ref)
		}
	}
}

func TestConv2DRandomShapesBitwise(t *testing.T) {
	r := lcg(1234)
	for it := 0; it < 60; it++ {
		n := 1 + r.next(3)
		c := 1 + r.next(5)
		k := []int{1, 3, 3, 3, 5, 9}[r.next(6)]
		stride := 1 + r.next(3)
		pad := r.next(3)
		h := k + r.next(10)
		w := k + r.next(10)
		oc := 1 + r.next(18)
		if (h+2*pad-k)/stride+1 <= 0 || (w+2*pad-k)/stride+1 <= 0 {
			continue
		}
		x := New(n, c, h, w).FillNormal(NewRNG(uint64(it+1)), 0, 1)
		zeroSome(x, &r)
		wt := New(oc, c, k, k).FillNormal(NewRNG(uint64(it+500)), 0, 1)
		var bias *Tensor
		if r.next(2) == 0 {
			bias = New(oc).FillNormal(NewRNG(uint64(it+900)), 0, 1)
		}
		requireSameBits(t, "Conv2D random", Conv2D(x, wt, bias, stride, pad), Conv2DRef(x, wt, bias, stride, pad))
	}
}

// TestAVXMatchesScalar re-runs the conv and matmul kernels with the AVX
// kernels disabled and demands bit-identical output — the guarantee that
// lets dispatch stay shape-only without breaking cross-machine
// determinism.
func TestAVXMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Skip("AVX not in use on this machine")
	}
	x := New(2, 4, 12, 14).FillNormal(NewRNG(3), 0, 1)
	zeroSome(x, new(lcg))
	w3 := New(7, 4, 3, 3).FillNormal(NewRNG(4), 0, 1)
	w9 := New(9, 4, 5, 5).FillNormal(NewRNG(5), 0, 1)
	bias := New(7).FillNormal(NewRNG(6), 0, 1)
	a := New(31, 53).FillNormal(NewRNG(7), 0, 1)
	b := New(26, 53).FillNormal(NewRNG(8), 0, 1)

	avxConv3 := Conv2D(x, w3, bias, 1, 1)
	avxConv9 := Conv2D(x, w9, nil, 2, 2)
	avxMM := MatMulT(a, b)

	useAVX = false
	defer func() { useAVX = true }()
	requireSameBits(t, "conv 3x3 AVX vs scalar", avxConv3, Conv2D(x, w3, bias, 1, 1))
	requireSameBits(t, "conv GEMM AVX vs scalar", avxConv9, Conv2D(x, w9, nil, 2, 2))
	requireSameBits(t, "MatMulT AVX vs scalar", avxMM, MatMulT(a, b))
}

// TestAVXTileDoesNotAllocate pins the assembly prototypes' //go:noescape
// annotations: without them the 8-row tile's lane buffer moves to the
// heap, and every dot8Into call (20 per 160-row MatVecT) allocates.
func TestAVXTileDoesNotAllocate(t *testing.T) {
	if !useAVX {
		t.Skip("AVX not in use on this machine")
	}
	a := New(147).FillNormal(NewRNG(21), 0, 1).Data
	w := New(160, 147).FillNormal(NewRNG(22), 0, 1).Data
	dst := make([]float64, 160)
	if n := testing.AllocsPerRun(20, func() { dot8Into(dst[:8], a, w, 147) }); n != 0 {
		t.Errorf("dot8Into allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { MatVecT(dst, a, w, 147) }); n != 0 {
		t.Errorf("MatVecT allocates %v times per call", n)
	}
}

func TestConv2DBackwardScratchMatchesFresh(t *testing.T) {
	x := New(2, 3, 7, 6).FillNormal(NewRNG(11), 0, 1)
	w := New(4, 3, 3, 3).FillNormal(NewRNG(12), 0, 1)
	out := Conv2D(x, w, nil, 2, 1)
	gy := New(out.Shape...).FillNormal(NewRNG(13), 0, 1)

	gx0, gw0, gb0 := Conv2DBackward(x, w, gy, 2, 1)
	s := NewScratch()
	for round := 0; round < 2; round++ { // round 2 hits recycled buffers
		gx, gw, gb := Conv2DBackwardScratch(x, w, gy, 2, 1, s)
		requireSameBits(t, "gx", gx, gx0)
		requireSameBits(t, "gw", gw, gw0)
		requireSameBits(t, "gb", gb, gb0)
	}
	if s.Stats().Reuses == 0 {
		t.Fatal("backward scratch arena never reused a buffer")
	}
}
