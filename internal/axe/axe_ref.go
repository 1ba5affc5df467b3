package axe

import "redcane/internal/tensor"

// Naive reference implementations of the quantized kernels (the
// pre-GEMM per-pixel loops), retained as oracles. Integer accumulation
// is associative, so the optimized kernels must match these exactly —
// equal integer sums feed the identical float epilogue expression, and
// the tests demand bitwise equality. mul is the multiplier on operand
// codes (exact, or a LUT's Mul widened).

// quantConv2DRef is the 6-deep per-pixel reference: for every
// (b, oy, ox, oc) it walks the kernel window, skipping padded taps, and
// re-derives the valid weight-code sum on border positions.
func quantConv2DRef(mul func(a, b uint16) uint32, x, w, bias *tensor.Tensor, stride, pad int, bits uint) *tensor.Tensor {
	qx, xq := quantizeCodes(x, bits, nil)
	qw, wq := quantizeCodes(w, bits, nil)

	spec := tensor.ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3], Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)

	k := spec.KH * spec.KW
	patch := spec.InCh * k
	out := tensor.New(n, spec.OutCh, oh, ow)
	sumWq := make([]int64, spec.OutCh)
	for oc := 0; oc < spec.OutCh; oc++ {
		sum := int64(0)
		for i := 0; i < patch; i++ {
			sum += int64(wq[oc*patch+i])
		}
		sumWq[oc] = sum
	}

	sx, mx := qx.Step(), qx.Min
	sw, mw := qw.Step(), qw.Min
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < spec.OutCh; oc++ {
					var lutSum, xSum int64
					var pads int
					wBase := oc * patch
					for ci := 0; ci < spec.InCh; ci++ {
						for ky := 0; ky < spec.KH; ky++ {
							iy := oy*stride + ky - pad
							for kx := 0; kx < spec.KW; kx++ {
								ix := ox*stride + kx - pad
								widx := wBase + (ci*spec.KH+ky)*spec.KW + kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									pads++
									// A zero *value* operand: x=0 exactly.
									// Contribution is 0·w = 0; skip.
									continue
								}
								xc := xq[((b*spec.InCh+ci)*h+iy)*wd+ix]
								lutSum += int64(mul(xc, wq[widx]))
								xSum += int64(xc)
							}
						}
					}
					// Valid-w sum: subtract the padded weights' codes.
					validWq := sumWq[oc]
					if pads > 0 {
						validWq = 0
						for ci := 0; ci < spec.InCh; ci++ {
							for ky := 0; ky < spec.KH; ky++ {
								iy := oy*stride + ky - pad
								for kx := 0; kx < spec.KW; kx++ {
									ix := ox*stride + kx - pad
									if iy < 0 || iy >= h || ix < 0 || ix >= wd {
										continue
									}
									validWq += int64(wq[wBase+(ci*spec.KH+ky)*spec.KW+kx])
								}
							}
						}
					}
					valid := int64(patch - pads)
					acc := sx*sw*float64(lutSum) +
						sx*mw*float64(xSum) +
						sw*mx*float64(validWq) +
						mx*mw*float64(valid)
					if bias != nil {
						acc += bias.Data[oc]
					}
					out.Data[((b*spec.OutCh+oc)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// quantCapsVotesRef is the per-vote reference that re-derives the
// weight-code sum inside the innermost loop.
func quantCapsVotesRef(mul func(a, b uint16) uint32, u, w *tensor.Tensor, bits uint) *tensor.Tensor {
	qu, uc := quantizeCodes(u, bits, nil)
	qw, wc := quantizeCodes(w, bits, nil)

	n, inCaps, inDim := u.Shape[0], u.Shape[1], u.Shape[2]
	outCaps, outDim := w.Shape[1], w.Shape[2]

	su, mu := qu.Step(), qu.Min
	sw, mw := qw.Step(), qw.Min
	votes := tensor.New(n, inCaps, outCaps, outDim, 1)
	for b := 0; b < n; b++ {
		for i := 0; i < inCaps; i++ {
			ubase := (b*inCaps + i) * inDim
			var sumU int64
			for e := 0; e < inDim; e++ {
				sumU += int64(uc[ubase+e])
			}
			for j := 0; j < outCaps; j++ {
				for d := 0; d < outDim; d++ {
					wbase := ((i*outCaps+j)*outDim + d) * inDim
					var lutSum, sumW int64
					for e := 0; e < inDim; e++ {
						lutSum += int64(mul(uc[ubase+e], wc[wbase+e]))
						sumW += int64(wc[wbase+e])
					}
					acc := su*sw*float64(lutSum) +
						su*mw*float64(sumU) +
						sw*mu*float64(sumW) +
						mu*mw*float64(inDim)
					votes.Data[((b*inCaps+i)*outCaps+j)*outDim+d] = acc
				}
			}
		}
	}
	return votes
}
