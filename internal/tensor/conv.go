package tensor

import "fmt"

// ConvSpec describes a 2D convolution: kernel size, stride and symmetric
// zero padding. Tensors use NCHW layout. Grouped convolution is not
// supported.
type ConvSpec struct {
	KH, KW int // kernel height and width
	Stride int // same stride for both spatial dims
	Pad    int // symmetric zero padding
	OutCh  int // number of output channels
	InCh   int // number of input channels (must match the input tensor)
}

// OutSize returns the spatial output size for an input of size h×w.
func (c ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.Pad-c.KH)/c.Stride + 1
	ow = (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// Im2Col unfolds x (shape [N, C, H, W]) into a matrix of shape
// [N*OH*OW, C*KH*KW] so that convolution becomes a matrix product with the
// flattened kernel. Out-of-bounds (padding) positions contribute zeros.
func Im2Col(x *Tensor, spec ConvSpec) *Tensor {
	return Im2ColScratch(x, spec, nil)
}

// Im2ColScratch is Im2Col with the column matrix taken from an optional
// scratch arena (nil allocates fresh). Every element is written, so a
// recycled buffer needs no zeroing.
func Im2ColScratch(x *Tensor, spec ConvSpec, s *Scratch) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != spec.InCh {
		panic(fmt.Sprintf("tensor: Im2Col input channels %d != spec.InCh %d", c, spec.InCh))
	}
	oh, ow := spec.OutSize(h, w)
	cols := s.Take(n*oh*ow, c*spec.KH*spec.KW)
	row := 0
	for b := 0; b < n; b++ {
		base := b * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := cols.Data[row*cols.Shape[1]:]
				k := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < spec.KH; ky++ {
						iy := oy*spec.Stride + ky - spec.Pad
						for kx := 0; kx < spec.KW; kx++ {
							ix := ox*spec.Stride + kx - spec.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dst[k] = x.Data[chBase+iy*w+ix]
							} else {
								dst[k] = 0
							}
							k++
						}
					}
				}
				row++
			}
		}
	}
	return cols
}

// Col2Im folds a column matrix (as produced by Im2Col, shape
// [N*OH*OW, C*KH*KW]) back into an [N, C, H, W] tensor, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used for
// convolution input gradients.
func Col2Im(cols *Tensor, n, c, h, w int, spec ConvSpec) *Tensor {
	oh, ow := spec.OutSize(h, w)
	if cols.Shape[0] != n*oh*ow || cols.Shape[1] != c*spec.KH*spec.KW {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with n=%d c=%d h=%d w=%d spec=%+v", cols.Shape, n, c, h, w, spec))
	}
	x := New(n, c, h, w)
	row := 0
	for b := 0; b < n; b++ {
		base := b * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols.Data[row*cols.Shape[1]:]
				k := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < spec.KH; ky++ {
						iy := oy*spec.Stride + ky - spec.Pad
						for kx := 0; kx < spec.KW; kx++ {
							ix := ox*spec.Stride + kx - spec.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x.Data[chBase+iy*w+ix] += src[k]
							}
							k++
						}
					}
				}
				row++
			}
		}
	}
	return x
}

// Conv2D computes a standard 2D convolution (really cross-correlation, as in
// every DL framework) of x [N, InCh, H, W] with kernel w
// [OutCh, InCh, KH, KW] plus bias b [OutCh] (nil for no bias).
// The result has shape [N, OutCh, OH, OW].
func Conv2D(x, w, b *Tensor, stride, pad int) *Tensor {
	return Conv2DScratch(x, w, b, stride, pad, nil)
}

// Conv2DScratch is Conv2D with its temporaries taken from (and released
// back to) an optional scratch arena, so repeated forward passes stop
// churning the allocator. The returned output tensor is always freshly
// allocated — it escapes to the caller and must survive arena reuse.
//
// Dispatch is by shape only (never by CPU features), so a given
// convolution always takes the same numeric path on every machine:
// 3×3 stride-1 kernels on wide-enough planes run the fused im2col-free
// direct path, and everything else goes through im2col + the blocked
// GEMM with a fused bias+transpose epilogue. Each path is bit-identical
// to its reference oracle in conv_ref.go.
func Conv2DScratch(x, w, b *Tensor, stride, pad int, s *Scratch) *Tensor {
	if w.Shape[2] == 3 && w.Shape[3] == 3 && stride == 1 && use3x3Direct(x.Shape[3]) {
		return conv2DDirect3x3(x, w, b, pad)
	}
	return conv2DGEMM(x, w, b, stride, pad, s)
}

// use3x3Direct decides — from the input width alone, so dispatch stays a
// pure shape rule — whether a 3×3 stride-1 convolution takes the fused
// direct path. The direct kernel amortizes its per-(ci, ky) row-pass
// setup over the fully-in-bounds interior columns; on narrow planes
// (DeepCaps' deep cells run at 8×8 down to 2×2) border columns dominate
// and the im2col GEMM is several times faster, so those shapes keep the
// GEMM path.
func use3x3Direct(wd int) bool {
	// wd-2 is the count of output columns whose three kx taps are all in
	// bounds, for any padding.
	return wd-2 >= 10
}

// conv2DGEMM is the general path: im2col, then each output position's
// patch row is multiplied against blocks of eight kernel rows (the
// shared-load dot8 tile), with bias add and the [row, OutCh] →
// [N, OutCh, OH, OW] transpose fused into the epilogue instead of
// materializing a product matrix.
func conv2DGEMM(x, w, b *Tensor, stride, pad int, s *Scratch) *Tensor {
	spec := ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3],
		Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)
	cols := Im2ColScratch(x, spec, s) // [N*OH*OW, patch]
	patch := spec.InCh * spec.KH * spec.KW
	out := New(n, spec.OutCh, oh, ow)
	rows := oh * ow
	oc8 := spec.OutCh &^ 7
	parallelRows(n*rows, func(r0, r1 int) {
		var dots [8]float64
		for r := r0; r < r1; r++ {
			bIdx, p := r/rows, r%rows
			crow := cols.Data[r*patch : (r+1)*patch]
			outB := out.Data[bIdx*spec.OutCh*rows:]
			for oc0 := 0; oc0 < oc8; oc0 += 8 {
				dot8Into(dots[:], crow, w.Data[oc0*patch:], patch)
				for j := 0; j < 8; j++ {
					v := dots[j]
					if b != nil {
						v += b.Data[oc0+j]
					}
					outB[(oc0+j)*rows+p] = v
				}
			}
			for oc := oc8; oc < spec.OutCh; oc++ {
				v := Dot(crow, w.Data[oc*patch:(oc+1)*patch])
				if b != nil {
					v += b.Data[oc]
				}
				outB[oc*rows+p] = v
			}
		}
	})
	s.Release(cols)
	return out
}

// fused3Row adds one 3-tap row pass to dst: dst[i] += ((x[i]*w0 +
// x[i+1]*w1) + x[i+2]*w2). Scalar twin of one fused3RowsAVX row.
func fused3Row(dst, x []float64, w0, w1, w2 float64) {
	x = x[:len(dst)+2]
	for i := range dst {
		dst[i] += (x[i]*w0 + x[i+1]*w1) + x[i+2]*w2
	}
}

// edge3Cols accumulates the partially-padded left ([0, lo)) and right
// ([hi, ow)) output columns of one (ci, ky) tap triple. An edge column of
// a 3×3 kernel has at most two in-bounds kx taps, so each column gets a
// branch-free strided pass down the rows; the per-element order is still
// the reference's t := 0 then += per valid tap in ascending kx. Deep
// DeepCaps cells run on 4×4 and 2×2 planes where every column is an edge
// column, which makes this the hot loop of small feature maps.
func edge3Cols(plane, xplane []float64, oyLo, oyHi, ky, pad, ow, wd, lo, hi int, wk [3]float64) {
	nRows := oyHi - oyLo
	edgeCol := func(ox int) {
		kxLo, kxHi := pad-ox, wd+pad-ox
		if kxLo < 0 {
			kxLo = 0
		}
		if kxHi > 3 {
			kxHi = 3
		}
		if kxHi <= kxLo {
			return // column fully padded on this tap row
		}
		xoff := (oyLo+ky-pad)*wd + ox + kxLo - pad
		poff := oyLo*ow + ox
		if kxHi-kxLo == 1 {
			w0 := wk[kxLo]
			for r := 0; r < nRows; r++ {
				t := 0.0
				t += xplane[xoff] * w0
				plane[poff] += t
				poff += ow
				xoff += wd
			}
			return
		}
		w0, w1 := wk[kxLo], wk[kxLo+1]
		for r := 0; r < nRows; r++ {
			t := 0.0
			t += xplane[xoff] * w0
			t += xplane[xoff+1] * w1
			plane[poff] += t
			poff += ow
			xoff += wd
		}
	}
	for ox := 0; ox < lo; ox++ {
		edgeCol(ox)
	}
	for ox := hi; ox < ow; ox++ {
		edgeCol(ox)
	}
}

// conv2DDirect3x3 is the fused, im2col-free fast path for 3×3 stride-1
// convolutions (the bulk of DeepCaps). Each output plane starts at its
// bias and accumulates one fused 3-tap row pass per (inCh, ky), two
// output channels at a time so the input loads are shared; the
// partially-padded border columns are handled separately so interior
// pixels never test padding. The per-element summation order — bias
// first, then one fused tap triple per (ci, ky) in ascending order — is
// exactly Conv2DRef's direct order.
func conv2DDirect3x3(x, w, bias *Tensor, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outCh := w.Shape[0]
	oh, ow := h+2*pad-2, wd+2*pad-2
	out := New(n, outCh, oh, ow)
	rows := oh * ow

	// Interior columns: all three kx taps in bounds.
	lo, hi := pad, wd+pad-2
	if lo > ow {
		lo = ow
	}
	if hi < lo {
		hi = lo
	}
	if hi > ow {
		hi = ow
	}

	// tapRange returns the valid output-row range for tap row ky.
	tapRange := func(ky int) (oyLo, oyHi int) {
		oyLo, oyHi = pad-ky, h+pad-ky
		if oyLo < 0 {
			oyLo = 0
		}
		if oyHi > oh {
			oyHi = oh
		}
		return oyLo, oyHi
	}

	for b := 0; b < n; b++ {
		for oc := 0; oc < outCh; oc++ {
			if bias != nil {
				plane := out.Data[(b*outCh+oc)*rows : (b*outCh+oc+1)*rows]
				bv := bias.Data[oc]
				for i := range plane {
					plane[i] = bv
				}
			}
		}
		oc := 0
		for ; oc+1 < outCh; oc += 2 {
			p0 := out.Data[(b*outCh+oc)*rows : (b*outCh+oc+1)*rows]
			p1 := out.Data[(b*outCh+oc+1)*rows : (b*outCh+oc+2)*rows]
			for ci := 0; ci < c; ci++ {
				xplane := x.Data[(b*c+ci)*h*wd : (b*c+ci+1)*h*wd]
				for ky := 0; ky < 3; ky++ {
					oyLo, oyHi := tapRange(ky)
					if oyHi <= oyLo {
						continue
					}
					wb0 := ((oc*c+ci)*3 + ky) * 3
					wb1 := (((oc+1)*c+ci)*3 + ky) * 3
					u := [3]float64{w.Data[wb0], w.Data[wb0+1], w.Data[wb0+2]}
					v := [3]float64{w.Data[wb1], w.Data[wb1+1], w.Data[wb1+2]}
					if hi > lo {
						nCols := hi - lo
						xoff := (oyLo+ky-pad)*wd + lo - pad
						if useAVX {
							fused3Rows2AVX(&p0[oyLo*ow+lo], &p1[oyLo*ow+lo], &xplane[xoff],
								oyHi-oyLo, nCols, ow, wd,
								u[0], u[1], u[2], v[0], v[1], v[2])
						} else {
							for oy := oyLo; oy < oyHi; oy++ {
								xr := xplane[(oy+ky-pad)*wd+lo-pad:]
								fused3Row(p0[oy*ow+lo:oy*ow+hi], xr, u[0], u[1], u[2])
								fused3Row(p1[oy*ow+lo:oy*ow+hi], xr, v[0], v[1], v[2])
							}
						}
					}
					edge3Cols(p0, xplane, oyLo, oyHi, ky, pad, ow, wd, lo, hi, u)
					edge3Cols(p1, xplane, oyLo, oyHi, ky, pad, ow, wd, lo, hi, v)
				}
			}
		}
		if oc < outCh {
			p0 := out.Data[(b*outCh+oc)*rows : (b*outCh+oc+1)*rows]
			for ci := 0; ci < c; ci++ {
				xplane := x.Data[(b*c+ci)*h*wd : (b*c+ci+1)*h*wd]
				for ky := 0; ky < 3; ky++ {
					oyLo, oyHi := tapRange(ky)
					if oyHi <= oyLo {
						continue
					}
					wb := ((oc*c+ci)*3 + ky) * 3
					u := [3]float64{w.Data[wb], w.Data[wb+1], w.Data[wb+2]}
					if hi > lo {
						xoff := (oyLo+ky-pad)*wd + lo - pad
						if useAVX {
							fused3RowsAVX(&p0[oyLo*ow+lo], &xplane[xoff],
								oyHi-oyLo, hi-lo, ow, wd, u[0], u[1], u[2])
						} else {
							for oy := oyLo; oy < oyHi; oy++ {
								fused3Row(p0[oy*ow+lo:oy*ow+hi], xplane[(oy+ky-pad)*wd+lo-pad:], u[0], u[1], u[2])
							}
						}
					}
					edge3Cols(p0, xplane, oyLo, oyHi, ky, pad, ow, wd, lo, hi, u)
				}
			}
		}
	}
	return out
}

// Conv2DBackward computes gradients of a Conv2D with respect to its input,
// kernel and bias, given the upstream gradient gy [N, OutCh, OH, OW].
// Any of the returned gradients the caller does not need can be ignored.
func Conv2DBackward(x, w, gy *Tensor, stride, pad int) (gx, gw, gb *Tensor) {
	return Conv2DBackwardScratch(x, w, gy, stride, pad, nil)
}

// Conv2DBackwardScratch is Conv2DBackward with the im2col and matmul
// temporaries taken from (and released back to) an optional scratch
// arena, mirroring the forward path — a training step no longer
// allocates fresh column/product matrices. The returned gradients are
// always freshly allocated.
func Conv2DBackwardScratch(x, w, gy *Tensor, stride, pad int, s *Scratch) (gx, gw, gb *Tensor) {
	spec := ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3],
		Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)
	rows := oh * ow

	// Rearrange gy from [N, OutCh, OH, OW] to [N*OH*OW, OutCh].
	gyMat := s.Take(n*rows, spec.OutCh)
	for bIdx := 0; bIdx < n; bIdx++ {
		for oc := 0; oc < spec.OutCh; oc++ {
			src := gy.Data[(bIdx*spec.OutCh+oc)*rows : (bIdx*spec.OutCh+oc+1)*rows]
			for p, v := range src {
				gyMat.Data[(bIdx*rows+p)*spec.OutCh+oc] = v
			}
		}
	}

	cols := Im2ColScratch(x, spec, s) // [N*OH*OW, InCh*KH*KW]

	// gw = gyMat^T · cols  -> [OutCh, InCh*KH*KW]
	gwMat := MatMulAT(gyMat, cols)
	gw = gwMat.Reshape(spec.OutCh, spec.InCh, spec.KH, spec.KW)

	// gb = column sums of gyMat.
	gb = New(spec.OutCh)
	for r := 0; r < gyMat.Shape[0]; r++ {
		src := gyMat.Data[r*spec.OutCh : (r+1)*spec.OutCh]
		for oc, v := range src {
			gb.Data[oc] += v
		}
	}

	// gcols = gyMat · kmat -> [N*OH*OW, InCh*KH*KW]; then fold back.
	kmat := w.Reshape(spec.OutCh, spec.InCh*spec.KH*spec.KW)
	gcols := MatMulScratch(gyMat, kmat, s)
	gx = Col2Im(gcols, n, c, h, wd, spec)
	s.Release(gyMat, cols, gcols)
	return gx, gw, gb
}
