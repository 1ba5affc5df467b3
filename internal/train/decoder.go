package train

import (
	"math"

	"redcane/internal/tensor"
)

// This file implements the reconstruction regularizer of Sabour et al.:
// the true class's capsule vector is fed through a small fully-connected
// decoder that must reproduce the input image, and the masked MSE is
// added to the margin loss with a small weight. The ReD-CaNe paper
// excludes the decoder from its *resilience analysis* (it is training-only
// machinery), but the CapsNets it analyzes are trained with it, so the
// training substrate provides it.

// Dense is a fully-connected trainable layer with an optional activation.
type Dense struct {
	W, B       *Param
	Activation Activation

	x, pre *tensor.Tensor
}

// Activation selects the elementwise nonlinearity of a Dense layer.
type Activation int

const (
	// Linear applies no nonlinearity.
	Linear Activation = iota
	// ReLUAct applies max(x, 0).
	ReLUAct
	// SigmoidAct applies 1/(1+e^{-x}) — the decoder output layer.
	SigmoidAct
)

// NewDense builds a Glorot-initialized fully-connected layer mapping
// in → out features.
func NewDense(name string, in, out int, act Activation, seed uint64) *Dense {
	w := tensor.New(out, in).FillGlorot(tensor.NewRNG(seed), in, out)
	return &Dense{
		W:          newParam(name+"/W", w),
		B:          newParam(name+"/B", tensor.New(out)),
		Activation: act,
	}
}

// Forward computes the layer for a rank-2 input [n, in], caching what
// Backward needs.
func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	out, in := l.W.W.Shape[0], l.W.W.Shape[1]
	n := x.Shape[0]
	y := tensor.MatMulT(x.Reshape(n, in), l.W.W) // [n, out]
	for b := 0; b < n; b++ {
		row := y.Data[b*out : (b+1)*out]
		for j := range row {
			row[j] += l.B.W.Data[j]
		}
	}
	l.pre = y
	switch l.Activation {
	case ReLUAct:
		return tensor.ReLU(y)
	case SigmoidAct:
		return y.Map(sigmoid)
	default:
		return y
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Backward accumulates the parameter gradients for the output gradient
// gy of the last Forward and returns the input gradient.
func (l *Dense) Backward(gy *tensor.Tensor) *tensor.Tensor {
	out, in := l.W.W.Shape[0], l.W.W.Shape[1]
	n := l.x.Shape[0]
	gpre := gy
	switch l.Activation {
	case ReLUAct:
		gpre = tensor.ReLUBackward(l.pre, gy)
	case SigmoidAct:
		gpre = tensor.New(gy.Shape...)
		for i, v := range l.pre.Data {
			s := sigmoid(v)
			gpre.Data[i] = gy.Data[i] * s * (1 - s)
		}
	}
	g2 := gpre.Reshape(n, out)
	x2 := l.x.Reshape(n, in)
	// gW[o, i] = Σ_b g[b, o]·x[b, i]
	gw := tensor.MatMulAT(g2, x2) // [out, in]
	l.W.G.AddInPlace(gw)
	for b := 0; b < n; b++ {
		for j := 0; j < out; j++ {
			l.B.G.Data[j] += g2.Data[b*out+j]
		}
	}
	// gx = g2 · W  ([n, out]·[out, in])
	return tensor.MatMul(g2, l.W.W)
}

// Params returns the layer's weight and bias.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// Decoder reconstructs the input image from the true class's capsule
// vector through two hidden ReLU layers and a sigmoid output, as in
// Sabour et al.
type Decoder struct {
	Classes, Dim int
	OutSize      int // C·H·W of the input image
	H1, H2, Out  *Dense

	masked *tensor.Tensor
	labels []int
}

// NewDecoder builds the decoder with the given hidden widths.
func NewDecoder(classes, dim, hidden1, hidden2, outSize int, seed uint64) *Decoder {
	return &Decoder{
		Classes: classes, Dim: dim, OutSize: outSize,
		H1:  NewDense("Decoder1", classes*dim, hidden1, ReLUAct, seed),
		H2:  NewDense("Decoder2", hidden1, hidden2, ReLUAct, seed+1),
		Out: NewDense("DecoderOut", hidden2, outSize, SigmoidAct, seed+2),
	}
}

// Reconstruct masks v [n, classes, dim] to the labeled class and decodes
// an image reconstruction [n, outSize].
func (d *Decoder) Reconstruct(v *tensor.Tensor, labels []int) *tensor.Tensor {
	n := v.Shape[0]
	masked := tensor.New(n, d.Classes*d.Dim)
	for b := 0; b < n; b++ {
		base := (b*d.Classes + labels[b]) * d.Dim
		copy(masked.Data[b*d.Classes*d.Dim+labels[b]*d.Dim:], v.Data[base:base+d.Dim])
	}
	d.masked = masked
	d.labels = labels
	return d.Out.Forward(d.H2.Forward(d.H1.Forward(masked)))
}

// Loss computes the reconstruction MSE against the flattened input images
// x [n, outSize] and returns the loss plus the gradient with respect to
// the class capsules v (nonzero only at the labeled class's capsule).
func (d *Decoder) Loss(recon, x *tensor.Tensor, labels []int, weight float64) (float64, *tensor.Tensor) {
	n := recon.Shape[0]
	grad := tensor.New(recon.Shape...)
	loss := 0.0
	for i := range recon.Data {
		diff := recon.Data[i] - x.Data[i]
		loss += diff * diff
		grad.Data[i] = 2 * weight * diff / float64(n)
	}
	loss = loss * weight / float64(n)

	gMasked := d.H1.Backward(d.H2.Backward(d.Out.Backward(grad)))
	// Scatter back to [n, classes, dim], only the labeled capsule.
	gv := tensor.New(n, d.Classes, d.Dim)
	for b := 0; b < n; b++ {
		src := gMasked.Data[b*d.Classes*d.Dim+labels[b]*d.Dim:]
		dst := gv.Data[(b*d.Classes+labels[b])*d.Dim:]
		copy(dst[:d.Dim], src[:d.Dim])
	}
	return loss, gv
}

// Params returns the decoder's trainable parameters.
func (d *Decoder) Params() []*Param {
	var out []*Param
	out = append(out, d.H1.Params()...)
	out = append(out, d.H2.Params()...)
	out = append(out, d.Out.Params()...)
	return out
}

// ZeroGrad clears the decoder's gradients.
func (d *Decoder) ZeroGrad() {
	for _, p := range d.Params() {
		p.ZeroGrad()
	}
}
