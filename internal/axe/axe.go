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
//
// Every kernel has one implementation per arithmetic. Exact MACs run on
// the float kernels (tensor.Conv2DScratch, tensor.MatVecT) over operand
// codes held as float64, which floatExact proves round-free. LUT MACs
// run lutGEMM, an integer GEMM in which each x code selects one row of
// the compiled table. Both produce the raw code-domain product sums; one
// epilogue per kernel adds the zero-point cross terms.
package axe

import (
	"fmt"

	"redcane/internal/approx"
	"redcane/internal/fixed"
	"redcane/internal/tensor"
)

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

// floatCodes copies operand codes into a float64 tensor of the given
// shape for the float kernels; elements past len(codes) are set to fill.
func floatCodes(codes []uint16, fill float64, s *tensor.Scratch, shape ...int) *tensor.Tensor {
	t := s.Take(shape...)
	for i, c := range codes {
		t.Data[i] = float64(c)
	}
	for i := len(codes); i < len(t.Data); i++ {
		t.Data[i] = fill
	}
	return t
}

// floatExact reports whether exact b-bit MACs over patch terms can run
// on the float64 kernels bit-exactly: every product and partial sum is
// a non-negative integer ≤ patch·(2^b−1)², and float64 holds every
// integer up to 2^53, so in any summation order no add or multiply
// rounds while that bound is ≤ 2^53.
func floatExact(patch int, bits uint) bool {
	maxCode := uint64(1)<<bits - 1
	return bits >= 1 && bits <= 16 && uint64(patch) <= (1<<53)/(maxCode*maxCode)
}

// checkFloatExact panics unless floatExact holds; the exact kernels
// call it once per call.
func checkFloatExact(patch int, bits uint) {
	if !floatExact(patch, bits) {
		panic(fmt.Sprintf("axe: exact %d-bit MACs over %d terms can exceed 2^53", bits, patch))
	}
}

// accSatMax returns the largest magnitude the hardware accumulator model
// holds for b-bit operands: a 2b-bit product register plus 8 guard bits
// (256 guard terms), signed. A raw code-domain product sum beyond
// ±(2^(2b+7)) is an accumulator overflow on such hardware — the numeric
// health probes count these. The kernels themselves never wrap (exact
// float64 or int64 sums); the count is diagnostic only.
func accSatMax(bits uint) int64 {
	accBits := 2*bits + 8
	return int64(1)<<(accBits-1) - 1
}

// tileRows transposes groups consecutive row-major [nRows, k] code
// matrices into lutGEMM's 8-row tiles: tile t of group g holds, for each
// column i, the codes of rows 8t…8t+7 side by side, so the tiles of a
// group start every 8k elements. Rows past nRows are code 0; their sums
// are computed and dropped.
func tileRows(w []uint16, groups, nRows, k int, s *tensor.Scratch) []uint16 {
	tiles := (nRows + 7) / 8
	wt := s.TakeU16(groups * tiles * 8 * k)
	for g := 0; g < groups; g++ {
		for t := 0; t < tiles; t++ {
			tile := wt[(g*tiles+t)*8*k : (g*tiles+t+1)*8*k]
			for j := 0; j < 8; j++ {
				r := t*8 + j
				for i := 0; i < k; i++ {
					tile[i*8+j] = 0
					if r < nRows {
						tile[i*8+j] = w[(g*nRows+r)*k+i]
					}
				}
			}
		}
	}
	return wt
}

// lutGEMM multiplies one row of ≤ 8-bit codes x through lut against
// nRows weight rows held as 8-row tiles (tileRows), writing row r's raw
// product sum to dst[r*stride]. Each x code selects one 256-entry table
// row, shared by the tile's 8 weight codes, and the lookups accumulate
// in integers, so the result is order-free.
func lutGEMM(lut *approx.LUT, x, wt []uint16, dst []float64, stride, nRows int) {
	k := len(x)
	for t := 0; t*8 < nRows; t++ {
		var sums [8]int64
		for i0 := 0; i0 < k; i0 += 1 << 16 {
			i1 := min(k, i0+1<<16)
			a01, a23, a45, a67 := lutTile(lut, x[i0:i1], wt[(t*8*k+8*i0):(t*8*k+8*i1)])
			for j, a := range [4]uint64{a01, a23, a45, a67} {
				sums[2*j] += int64(a & 0xFFFFFFFF)
				sums[2*j+1] += int64(a >> 32)
			}
		}
		for j, a := range sums {
			if t*8+j < nRows {
				dst[(t*8+j)*stride] = float64(a)
			}
		}
	}
}

// lutTile returns the raw product sums of x against one 8-row tile. The
// sums ride two 32-bit lanes per register, so the 8 accumulators need
// only 4 registers; a lane sums at most 2^16 products of at most 16
// bits (the caller chunks longer rows), so it never carries into its
// neighbour.
func lutTile(lut *approx.LUT, x, tile []uint16) (a01, a23, a45, a67 uint64) {
	tile = tile[:8*len(x)]
	for i, xc := range x {
		row := lut.Row(uint8(xc))
		w := tile[i*8 : i*8+8 : i*8+8]
		a01 += uint64(row[uint8(w[0])]) | uint64(row[uint8(w[1])])<<32
		a23 += uint64(row[uint8(w[2])]) | uint64(row[uint8(w[3])])<<32
		a45 += uint64(row[uint8(w[4])]) | uint64(row[uint8(w[5])])<<32
		a67 += uint64(row[uint8(w[6])]) | uint64(row[uint8(w[7])])<<32
	}
	return a01, a23, a45, a67
}

// convWindow holds the hoisted quantities for one distinct valid-tap
// window [kyLo,kyHi)×[kxLo,kxHi): the per-channel valid weight-code
// sums, the per-channel correction for zero-code padded products
// (non-nil only for a LUT on a border window: multipliers may have
// mul(0,c) ≠ 0), and the valid tap count. There are at most
// (KH+1)·(KW+1) distinct windows per convolution, each built once.
type convWindow struct {
	wsum  []int64 // per-oc Σ wq over the valid window
	m0    []int64 // per-oc Σ mul(0, wq) over the *padded* complement
	valid int64
}

// convWindows returns the convWindow of every output position
// (index oy·ow+ox); interior positions share one.
func convWindows(lut *approx.LUT, wq []uint16, spec tensor.ConvSpec, h, wd, oh, ow int) []*convWindow {
	patch := spec.InCh * spec.KH * spec.KW
	build := func(yLo, yHi, xLo, xHi int) *convWindow {
		win := &convWindow{wsum: make([]int64, spec.OutCh), valid: int64(spec.InCh * (yHi - yLo) * (xHi - xLo))}
		if lut != nil && win.valid < int64(patch) {
			win.m0 = make([]int64, spec.OutCh)
		}
		for oc := range win.wsum {
			for r := oc * spec.InCh * spec.KH; r < (oc+1)*spec.InCh*spec.KH; r++ {
				ky := r % spec.KH // one division per kernel row, not per tap
				for kx, c := range wq[r*spec.KW : (r+1)*spec.KW] {
					if ky >= yLo && ky < yHi && kx >= xLo && kx < xHi {
						win.wsum[oc] += int64(c)
					} else if win.m0 != nil {
						win.m0[oc] += int64(lut.Mul(0, uint8(c)))
					}
				}
			}
		}
		return win
	}
	built := map[[4]int]*convWindow{}
	wins := make([]*convWindow, oh*ow)
	for oy := 0; oy < oh; oy++ {
		yLo, yHi := clampTap(oy, spec.Stride, spec.Pad, spec.KH, h)
		for ox := 0; ox < ow; ox++ {
			xLo, xHi := clampTap(ox, spec.Stride, spec.Pad, spec.KW, wd)
			key := [4]int{yLo, yHi, xLo, xHi}
			if built[key] == nil {
				built[key] = build(yLo, yHi, xLo, xHi)
			}
			wins[oy*ow+ox] = built[key]
		}
	}
	return wins
}

// quantConv2D convolves x [n, inCh, h, w] with kernels w [outCh, inCh,
// k, k] using b-bit affine-quantized operands, multiplying exactly (lut
// nil) or through lut (≤ 8 bits), and accumulating exactly. Bias (may
// be nil) is added in float. Both quantizers are calibrated per call on
// the full tensors, the same per-array ranging the paper's noise model
// uses. The output comes from the scratch arena; callers release it.
//
// The raw product sums Σ x·w and each patch's Σ x land in one
// [n, outCh+1, oh, ow] tensor, channel outCh holding Σ x. Exact MACs get
// it from the float conv over float64 codes, with Σ x as one extra
// all-ones kernel channel; LUT MACs from lutGEMM over a uint16 im2col
// (padding as code 0). The epilogue then adds the zero-point cross
// terms from the hoisted convWindow tables. Integer sums are order-free,
// so this is exact-equal to the naive reference (axe_ref.go). A non-nil
// ovf additionally tallies accumulator overflows (see accSatMax) without
// changing any output bit.
func quantConv2D(lut *approx.LUT, x, w, bias *tensor.Tensor, stride, pad int, bits uint, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	spec := tensor.ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3], Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)
	patch := spec.InCh * spec.KH * spec.KW
	rows := oh * ow
	if lut == nil {
		checkFloatExact(patch, bits)
	}
	qx, xq := quantizeCodes(x, bits, s)
	qw, wq := quantizeCodes(w, bits, s)

	var sums *tensor.Tensor
	if lut == nil {
		xf := floatCodes(xq, 0, s, x.Shape...)
		wf := floatCodes(wq, 1, s, spec.OutCh+1, spec.InCh, spec.KH, spec.KW)
		sums = tensor.Conv2DScratch(xf, wf, nil, stride, pad, s) // fresh, not lent by s
		s.Release(xf, wf)
	} else {
		xcols := s.TakeU16(n * rows * patch)
		for r := 0; r < n*rows; r++ {
			gatherCodeRow(xcols[r*patch:(r+1)*patch], xq, r/rows, r%rows/ow, r%ow, h, wd, spec)
		}
		wt := tileRows(wq, 1, spec.OutCh, patch, s)
		sums = s.Take(n, spec.OutCh+1, oh, ow)
		for r := 0; r < n*rows; r++ {
			xrow := xcols[r*patch : (r+1)*patch]
			dst := sums.Data[r/rows*(spec.OutCh+1)*rows+r%rows:]
			var xs int64
			for _, c := range xrow {
				xs += int64(c)
			}
			dst[spec.OutCh*rows] = float64(xs)
			lutGEMM(lut, xrow, wt, dst, rows, spec.OutCh)
		}
		s.ReleaseU16(xcols, wt)
	}

	wins := convWindows(lut, wq, spec, h, wd, oh, ow)
	sx, mx := qx.Step(), qx.Min
	sw, mw := qw.Step(), qw.Min
	satMax := accSatMax(bits)
	out := s.Take(n, spec.OutCh, oh, ow)
	for b := 0; b < n; b++ {
		src := sums.Data[b*(spec.OutCh+1)*rows : (b+1)*(spec.OutCh+1)*rows]
		xSum := src[spec.OutCh*rows:]
		for oc := 0; oc < spec.OutCh; oc++ {
			dst := out.Data[(b*spec.OutCh+oc)*rows : (b*spec.OutCh+oc+1)*rows]
			for p, win := range wins {
				raw := int64(src[oc*rows+p])
				if ovf != nil && raw > satMax {
					*ovf++ // hardware accumulates every term, pads included
				}
				if win.m0 != nil {
					raw -= win.m0[oc]
				}
				acc := sx*sw*float64(raw) +
					sx*mw*xSum[p] +
					sw*mx*float64(win.wsum[oc]) +
					mx*mw*float64(win.valid)
				if bias != nil {
					acc += bias.Data[oc]
				}
				dst[p] = acc
			}
		}
	}
	if lut != nil {
		s.Release(sums)
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
