// Package caps implements Capsule Network inference: convolutional and
// capsule layers (including DeepCaps' residual capsule cells, the 3D
// convolutional capsule layer, and fully-connected class capsules with
// dynamic routing), all instrumented with the noise-injection sites of the
// ReD-CaNe methodology.
//
// Every tensor crossing a layer boundary is NCHW ([batch, channels,
// height, width]); capsule layers interpret channels as caps·dim. Each
// operation that the paper's Table III classifies (MAC outputs,
// activations, softmax, logits update) passes its output through the
// active noise.Injector before flowing downstream.
package caps

import (
	"redcane/internal/energy"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// Layer is one inference stage of a capsule network.
type Layer interface {
	// Name returns the unique layer name used in injection sites.
	Name() string
	// Forward runs the layer on execution backend be, passing every
	// instrumented intermediate tensor through inj and recycling
	// temporaries through the scratch arena s (nil allocates fresh).
	Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor
	// Sites enumerates the layer's injection points in visit order.
	Sites() []noise.Site
	// Params exposes the layer's weights keyed by a stable name, for
	// loading and saving. Layers without weights return nil.
	Params() map[string]*tensor.Tensor
	// Ops counts the layer's arithmetic for an input of the given shape
	// and returns the op tally plus the output shape.
	Ops(inShape []int) (energy.Counts, []int)
}

// Conv2D is a standard convolution with an optional ReLU, the stem layer
// of both CapsNet and DeepCaps.
type Conv2D struct {
	LayerName string
	W         *tensor.Tensor // [outCh, inCh, k, k]
	B         *tensor.Tensor // [outCh]
	Stride    int
	Pad       int
	ReLU      bool
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.LayerName }

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	y := be.Conv2D(l.LayerName, x, l.W, l.B, l.Stride, l.Pad, s, nil)
	y = inj.Inject(noise.Site{Layer: l.LayerName, Group: noise.MACOutputs}, y)
	if l.ReLU {
		r := tensor.ReLU(y)
		s.Release(y)
		y = inj.Inject(noise.Site{Layer: l.LayerName, Group: noise.Activations}, r)
	}
	return y
}

// Sites implements Layer.
func (l *Conv2D) Sites() []noise.Site {
	s := []noise.Site{{Layer: l.LayerName, Group: noise.MACOutputs}}
	if l.ReLU {
		s = append(s, noise.Site{Layer: l.LayerName, Group: noise.Activations})
	}
	return s
}

// Params implements Layer.
func (l *Conv2D) Params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		l.LayerName + "/W": l.W,
		l.LayerName + "/B": l.B,
	}
}

// Ops implements Layer.
func (l *Conv2D) Ops(inShape []int) (energy.Counts, []int) {
	n, h, w := inShape[0], inShape[2], inShape[3]
	spec := tensor.ConvSpec{KH: l.W.Shape[2], KW: l.W.Shape[3], Stride: l.Stride, Pad: l.Pad}
	oh, ow := spec.OutSize(h, w)
	c := energy.Conv2DOps(oh, ow, l.W.Shape[0], l.W.Shape[1], l.W.Shape[2], l.W.Shape[3])
	return c.Scale(float64(n)), []int{n, l.W.Shape[0], oh, ow}
}

// ConvCaps2D is a 2D convolutional capsule layer: a convolution producing
// Caps·Dim channels followed by a squash over each capsule's Dim
// components (DeepCaps' building block, and CapsNet's PrimaryCaps).
type ConvCaps2D struct {
	LayerName string
	Caps, Dim int
	W         *tensor.Tensor // [caps*dim, inCh, k, k]
	B         *tensor.Tensor // [caps*dim]
	Stride    int
	Pad       int
}

// Name implements Layer.
func (l *ConvCaps2D) Name() string { return l.LayerName }

// Forward implements Layer.
func (l *ConvCaps2D) Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	y := be.Conv2D(l.LayerName, x, l.W, l.B, l.Stride, l.Pad, s, nil)
	y = inj.Inject(noise.Site{Layer: l.LayerName, Group: noise.MACOutputs}, y)
	return squashCaps(y, l.Caps, l.Dim, l.LayerName, inj, s, be.Nonlinearity())
}

// squashCaps squashes an NCHW tensor whose channels are caps·dim capsule
// components (through nl's squash operator) and injects the Activations
// site. The pre-squash tensor is released back to the scratch arena.
func squashCaps(y *tensor.Tensor, caps, dim int, layer string, inj noise.Injector, s *tensor.Scratch, nl Nonlinearity) *tensor.Tensor {
	n, h, w := y.Shape[0], y.Shape[2], y.Shape[3]
	v := y.Reshape(n, caps, dim, h, w)
	sq := nl.squash(v, 2)
	s.Release(y)
	sq = inj.Inject(noise.Site{Layer: layer, Group: noise.Activations}, sq)
	return sq.Reshape(n, caps*dim, h, w)
}

// Sites implements Layer.
func (l *ConvCaps2D) Sites() []noise.Site {
	return []noise.Site{
		{Layer: l.LayerName, Group: noise.MACOutputs},
		{Layer: l.LayerName, Group: noise.Activations},
	}
}

// Params implements Layer.
func (l *ConvCaps2D) Params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		l.LayerName + "/W": l.W,
		l.LayerName + "/B": l.B,
	}
}

// Ops implements Layer.
func (l *ConvCaps2D) Ops(inShape []int) (energy.Counts, []int) {
	n, h, w := inShape[0], inShape[2], inShape[3]
	spec := tensor.ConvSpec{KH: l.W.Shape[2], KW: l.W.Shape[3], Stride: l.Stride, Pad: l.Pad}
	oh, ow := spec.OutSize(h, w)
	c := energy.Conv2DOps(oh, ow, l.W.Shape[0], l.W.Shape[1], l.W.Shape[2], l.W.Shape[3]).
		Plus(energy.SquashOps(l.Caps*oh*ow, l.Dim))
	return c.Scale(float64(n)), []int{n, l.Caps * l.Dim, oh, ow}
}
