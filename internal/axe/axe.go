// Package axe provides the quantized execution backends: it runs a
// trained CapsNet's MAC kernels through genuine b-bit affine-quantized
// arithmetic — exactly (QuantExact) or through behavioral
// approximate-multiplier LUTs (QuantApprox) — instead of modeling the
// error as injected Gaussian noise.
//
// The paper validates its noise model by construction (Fig. 6 shows the
// component errors are Gaussian-like); these backends close the loop
// empirically: both implement caps.Backend, so accuracy under true
// approximate arithmetic is measured by the same engine (workers,
// prefix caching, checkpoints, telemetry) that evaluates the noise
// model's prediction, and the two can be compared per group and per
// layer (the `redcane validate` experiment).
package axe

import (
	"fmt"

	"redcane/internal/approx"
	"redcane/internal/fixed"
	"redcane/internal/tensor"
)

// macMul is the multiplier plugged into the quantized MAC kernels. It is
// a type parameter (not an interface field), so the exact and LUT kernels
// share one implementation. The per-product call does not inline: Go
// compiles the kernels once per GC shape and calls m.mul through the
// generic dictionary (go build -gcflags='-m -m' ./internal/axe).
type macMul interface {
	// mul returns the (possibly approximate) product of two operand
	// codes. Codes are ≤ 8 bits for LUT multipliers, ≤ 16 bits exact.
	mul(a, b uint16) uint32
}

// exactMul multiplies operand codes exactly (any wordlength up to 16).
type exactMul struct{}

func (exactMul) mul(a, b uint16) uint32 { return uint32(a) * uint32(b) }

// lutMul multiplies 8-bit operand codes through a compiled behavioral
// LUT.
type lutMul struct{ t *approx.LUT }

func (m lutMul) mul(a, b uint16) uint32 { return uint32(m.t.Mul(uint8(a), uint8(b))) }

// quantizeCodes calibrates a b-bit affine quantizer on t and encodes
// every element into a scratch-recycled code buffer.
func quantizeCodes(t *tensor.Tensor, bits uint, s *tensor.Scratch) (fixed.Quantizer, []uint16) {
	q := fixed.Calibrate(t, bits)
	codes := s.TakeU16(t.Len())
	for i, v := range t.Data {
		codes[i] = q.Quantize(v)
	}
	return q, codes
}

// accSatMax returns the largest magnitude the hardware accumulator model
// holds for b-bit operands: a 2b-bit product register plus 8 guard bits
// (256 guard terms), signed. A raw code-domain product sum beyond
// ±(2^(2b+7)) is an accumulator overflow on such hardware — the numeric
// health probes count these. The Go kernels themselves accumulate in
// int64 and never wrap; the count is diagnostic only.
func accSatMax(bits uint) int64 {
	accBits := 2*bits + 8
	return int64(1)<<(accBits-1) - 1
}

// quantGEMMMaxCols caps the size (in uint16 elements) of the code-domain
// im2col matrix the quantized conv materializes; convolutions whose
// matrix would be larger stream one patch row at a time instead. A
// package variable so tests can force the streaming path. Both paths
// compute identical integer sums, so the cutoff never changes results.
var quantGEMMMaxCols = 1 << 22

// convWindow holds the hoisted per-(oy,ox) border quantities for one
// distinct valid-tap window [kyLo,kyHi)×[kxLo,kxHi): the per-channel
// valid weight-code sums, the per-channel correction for zero-code
// padded products (nonzero only for multipliers with mul(0,c) ≠ 0), and
// the valid tap count. There are at most (KH+1)·(KW+1) distinct windows
// per convolution, so each is computed once instead of re-walking the
// kernel per (oc, oy, ox) as the pre-GEMM kernel did.
type convWindow struct {
	wsum  []int64 // per-oc Σ wq over the valid window
	m0    []int64 // per-oc Σ mul(0, wq) over the *padded* complement
	valid int64
}

// quantConv2D convolves x [n, inCh, h, w] with kernels w [outCh, inCh,
// k, k] using b-bit affine-quantized operands and m for every partial
// product, accumulating exactly. Bias (may be nil) is added in float.
// Both quantizers are calibrated per call on the full tensors, the same
// per-array ranging the paper's noise model uses. The output may come
// from the scratch arena; callers release it.
//
// The kernel is a code-domain integer GEMM: operand codes are gathered
// once into a uint16 im2col matrix (padding as code 0), each patch row's
// Σ x-codes is computed once for all output channels, and the per-product
// multiplier runs over flat contiguous rows. Zero-point cross terms use
// the hoisted convWindow tables on border positions; interior positions
// never test padding. Integer accumulation is order-free, so this is
// exact-equal to the naive reference (axe_ref.go) by construction.
// A non-nil ovf additionally tallies accumulator overflows (see
// accSatMax) without changing any output bit.
func quantConv2D[M macMul](m M, x, w, bias *tensor.Tensor, stride, pad int, bits uint, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	qx, xq := quantizeCodes(x, bits, s)
	qw, wq := quantizeCodes(w, bits, s)

	spec := tensor.ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3], Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)

	k := spec.KH * spec.KW
	patch := spec.InCh * k
	out := s.Take(n, spec.OutCh, oh, ow)
	rows := oh * ow

	// Whole-kernel per-oc sums: Σ wq and Σ mul(0, wq).
	sumWq := make([]int64, spec.OutCh)
	sumM0 := make([]int64, spec.OutCh)
	for oc := 0; oc < spec.OutCh; oc++ {
		wrow := wq[oc*patch : (oc+1)*patch]
		var sw, s0 int64
		for _, c := range wrow {
			sw += int64(c)
			s0 += int64(m.mul(0, c))
		}
		sumWq[oc] = sw
		sumM0[oc] = s0
	}
	interior := &convWindow{wsum: sumWq, valid: int64(patch)}

	// Valid-tap ranges per output row/column and the lazily-built window
	// table for border positions.
	kyLo := make([]int, oh)
	kyHi := make([]int, oh)
	for oy := 0; oy < oh; oy++ {
		kyLo[oy], kyHi[oy] = clampTap(oy, stride, pad, spec.KH, h)
	}
	kxLo := make([]int, ow)
	kxHi := make([]int, ow)
	for ox := 0; ox < ow; ox++ {
		kxLo[ox], kxHi[ox] = clampTap(ox, stride, pad, spec.KW, wd)
	}
	windows := map[int]*convWindow{}
	winFor := func(yLo, yHi, xLo, xHi int) *convWindow {
		if yLo == 0 && yHi == spec.KH && xLo == 0 && xHi == spec.KW {
			return interior
		}
		key := ((yLo*(spec.KH+1)+yHi)*(spec.KW+1)+xLo)*(spec.KW+1) + xHi
		if bw, ok := windows[key]; ok {
			return bw
		}
		bw := &convWindow{
			wsum:  make([]int64, spec.OutCh),
			m0:    make([]int64, spec.OutCh),
			valid: int64(spec.InCh * (yHi - yLo) * (xHi - xLo)),
		}
		for oc := 0; oc < spec.OutCh; oc++ {
			var sw, s0 int64
			for ci := 0; ci < spec.InCh; ci++ {
				for ky := yLo; ky < yHi; ky++ {
					base := oc*patch + (ci*spec.KH+ky)*spec.KW
					for kx := xLo; kx < xHi; kx++ {
						c := wq[base+kx]
						sw += int64(c)
						s0 += int64(m.mul(0, c))
					}
				}
			}
			bw.wsum[oc] = sw
			// Padded complement: zero-code products the flat GEMM row
			// accumulated that the reference never sees.
			bw.m0[oc] = sumM0[oc] - s0
		}
		windows[key] = bw
		return bw
	}

	sx, mx := qx.Step(), qx.Min
	sw, mw := qw.Step(), qw.Min
	var biasData []float64
	if bias != nil {
		biasData = bias.Data
	}
	satMax := accSatMax(bits)

	if n*rows*patch <= quantGEMMMaxCols {
		// Materialize the code im2col matrix once (padding = code 0).
		xcols := s.TakeU16(n * rows * patch)
		r := 0
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gatherCodeRow(xcols[r*patch:(r+1)*patch], xq, b, oy, ox, h, wd, spec)
					r++
				}
			}
		}
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := xcols[((b*oh+oy)*ow+ox)*patch:]
					row = row[:patch:patch]
					win := winFor(kyLo[oy], kyHi[oy], kxLo[ox], kxHi[ox])
					quantAccRow(m, row, wq, win, sx, mx, sw, mw, biasData,
						out.Data[b*spec.OutCh*rows+oy*ow+ox:], rows, satMax, ovf)
				}
			}
		}
		s.ReleaseU16(xcols)
	} else {
		// Streaming fallback: gather one patch row at a time. Same
		// integer sums, same hoisted border tables.
		rowBuf := s.TakeU16(patch)
		row := rowBuf[:patch:patch]
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gatherCodeRow(row, xq, b, oy, ox, h, wd, spec)
					win := winFor(kyLo[oy], kyHi[oy], kxLo[ox], kxHi[ox])
					quantAccRow(m, row, wq, win, sx, mx, sw, mw, biasData,
						out.Data[b*spec.OutCh*rows+oy*ow+ox:], rows, satMax, ovf)
				}
			}
		}
		s.ReleaseU16(rowBuf)
	}
	s.ReleaseU16(xq, wq)
	return out
}

// clampTap returns the in-bounds tap range [lo, hi) for output index o:
// taps t with 0 ≤ o*stride + t - pad < size.
func clampTap(o, stride, pad, k, size int) (lo, hi int) {
	lo, hi = pad-o*stride, size+pad-o*stride
	if lo < 0 {
		lo = 0
	}
	if hi > k {
		hi = k
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// gatherCodeRow writes the patch's operand codes for output position
// (b, oy, ox) into dst, with code 0 at padded taps.
func gatherCodeRow(dst []uint16, xq []uint16, b, oy, ox, h, wd int, spec tensor.ConvSpec) {
	i := 0
	for ci := 0; ci < spec.InCh; ci++ {
		chBase := (b*spec.InCh + ci) * h * wd
		for ky := 0; ky < spec.KH; ky++ {
			iy := oy*spec.Stride + ky - spec.Pad
			if iy < 0 || iy >= h {
				for kx := 0; kx < spec.KW; kx++ {
					dst[i] = 0
					i++
				}
				continue
			}
			rowBase := chBase + iy*wd
			for kx := 0; kx < spec.KW; kx++ {
				ix := ox*spec.Stride + kx - spec.Pad
				if ix < 0 || ix >= wd {
					dst[i] = 0
				} else {
					dst[i] = xq[rowBase+ix]
				}
				i++
			}
		}
	}
}

// quantAccRow accumulates one patch row against every output channel:
// the flat code-domain dot through m, the hoisted zero-point cross
// terms, and the float epilogue. dst[oc*dstStride] receives channel oc.
// A non-nil ovf counts raw product sums (before the pad correction —
// hardware accumulates every term) whose magnitude exceeds satMax.
func quantAccRow[M macMul](m M, row, wq []uint16, win *convWindow, sx, mx, sw, mw float64, bias []float64, dst []float64, dstStride int, satMax int64, ovf *int64) {
	var xSum int64
	for _, xc := range row {
		xSum += int64(xc)
	}
	patch := len(row)
	for oc := range win.wsum {
		wrow := wq[oc*patch : (oc+1)*patch : (oc+1)*patch]
		var lutSum int64
		for i, xc := range row {
			lutSum += int64(m.mul(xc, wrow[i]))
		}
		if ovf != nil && (lutSum > satMax || lutSum < -satMax-1) {
			*ovf++
		}
		if win.m0 != nil {
			lutSum -= win.m0[oc]
		}
		acc := sx*sw*float64(lutSum) +
			sx*mw*float64(xSum) +
			sw*mx*float64(win.wsum[oc]) +
			mx*mw*float64(win.valid)
		if bias != nil {
			acc += bias[oc]
		}
		dst[oc*dstStride] = acc
	}
}

// QuantConv2D convolves with b-bit quantized operands and the given
// approximate multiplier for every partial product. It is the standalone
// kernel entry point (the backends wrap it with operand-buffer reuse);
// multiplier LUTs are 8-bit, so bits must be ≤ 8.
func QuantConv2D(x, w, bias *tensor.Tensor, stride, pad int, mult approx.Multiplier, bits uint) *tensor.Tensor {
	if bits > 8 {
		panic(fmt.Sprintf("axe: multiplier LUTs are 8-bit, got %d", bits))
	}
	return quantConv2D(lutMul{approx.CompileLUT(mult)}, x, w, bias, stride, pad, bits, nil, nil)
}
