package tensor

// Conv2DRef is the naive reference oracle for Conv2D. It mirrors the
// shape-only dispatch of Conv2DScratch — direct summation order for the
// shapes the direct paths handle, im2col + MatMulTRef order otherwise —
// so the optimized kernels are tested against it bitwise, not within a
// tolerance.
//
// Canonical orders (for finite inputs):
//
//   - Direct 3×3: out = bias, then += one tap group per (ci, ky)
//     in ascending order; a tap group sums its in-bounds kx taps left to
//     right. The fused fast path evaluates a full group as
//     ((x0*w0 + x1*w1) + x2*w2) while this reference starts each group
//     at 0.0; the two differ only in the sign of an all-zero group, and
//     adding +0 or -0 to an accumulator that started at +0 never changes
//     its bits under round-to-nearest, so results are identical.
//   - GEMM: out[oc] = DotRef(patch row, kernel row) + bias, the 4-lane
//     canonical dot order.
func Conv2DRef(x, w, b *Tensor, stride, pad int) *Tensor {
	if w.Shape[2] == 3 && w.Shape[3] == 3 && stride == 1 && use3x3Direct(x.Shape[3]) {
		return conv2DDirectRef(x, w, b, stride, pad)
	}
	return conv2DGEMMRef(x, w, b, stride, pad)
}

// conv2DDirectRef is the direct-path oracle: per output element, bias
// plus one in-order tap-group sum per (ci, ky).
func conv2DDirectRef(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outCh, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	out := New(n, outCh, oh, ow)
	for bi := 0; bi < n; bi++ {
		for oc := 0; oc < outCh; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					if b != nil {
						s = b.Data[oc]
					}
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							t := 0.0
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								t += x.Data[((bi*c+ci)*h+iy)*wd+ix] * w.Data[((oc*c+ci)*kh+ky)*kw+kx]
							}
							s += t
						}
					}
					out.Data[((bi*outCh+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

// conv2DGEMMRef is the GEMM-path oracle: im2col followed by one DotRef
// per (position, output channel) with the bias added after the dot.
func conv2DGEMMRef(x, w, b *Tensor, stride, pad int) *Tensor {
	spec := ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3],
		Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)
	cols := Im2Col(x, spec)
	patch := spec.InCh * spec.KH * spec.KW
	rows := oh * ow
	out := New(n, spec.OutCh, oh, ow)
	for bi := 0; bi < n; bi++ {
		for p := 0; p < rows; p++ {
			crow := cols.Data[(bi*rows+p)*patch : (bi*rows+p+1)*patch]
			for oc := 0; oc < spec.OutCh; oc++ {
				v := DotRef(crow, w.Data[oc*patch:(oc+1)*patch])
				if b != nil {
					v += b.Data[oc]
				}
				out.Data[(bi*spec.OutCh+oc)*rows+p] = v
			}
		}
	}
	return out
}
