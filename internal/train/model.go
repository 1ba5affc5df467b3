// Package train trains the capsule networks of internal/caps in place:
// Model differentiates a caps.Network's own layers with hand-written
// backward passes (conv via im2col/col2im, squash Jacobians, dynamic
// routing with straight-through coupling coefficients), and Fit minimizes
// the margin loss of Sabour et al. with Adam.
//
// Training exists to produce realistic weights for the resilience analysis
// — the paper trains in TensorFlow on GPUs; here the whole stack is pure
// Go (DESIGN.md §2). As in the paper, the network analyzed is the network
// trained: there is one layer stack, and no weights are copied.
package train

import (
	"fmt"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// newParam allocates a zeroed gradient for w.
func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Fill(0) }

// Model trains a caps.Network in place: its parameters are the network's
// own weight tensors. Forward records what Backward needs, so a Model is
// not safe for concurrent use.
type Model struct {
	Net    *caps.Network
	params []*Param
	grads  map[*tensor.Tensor]*tensor.Tensor // weight → its gradient
	tape   tape
	inputs []*tensor.Tensor // each top-level layer's input in the last Forward
	s      *tensor.Scratch  // backward temporaries
}

// NewModel prepares net for training. The parameters are listed layer by
// layer in forward order — cell branches as L1, L2, L3, Skip — with each
// layer's W before its B: the order Adam's state and the gradient clip's
// global norm see them in, which the trained weights depend on.
func NewModel(net *caps.Network) *Model {
	m := &Model{Net: net, grads: map[*tensor.Tensor]*tensor.Tensor{}, s: tensor.NewScratch()}
	var walk func(l caps.Layer)
	walk = func(l caps.Layer) {
		switch t := l.(type) {
		case *caps.Conv2D:
			m.add(t.LayerName+"/W", t.W)
			m.add(t.LayerName+"/B", t.B)
		case *caps.ConvCaps2D:
			m.add(t.LayerName+"/W", t.W)
			m.add(t.LayerName+"/B", t.B)
		case *caps.ConvCaps3D:
			m.add(t.LayerName+"/W", t.W)
		case *caps.ClassCaps:
			m.add(t.LayerName+"/W", t.W)
		case *caps.CapsCell:
			for _, b := range []caps.Layer{t.L1, t.L2, t.L3, t.Skip} {
				walk(b)
			}
		default:
			panic(fmt.Sprintf("train: no backward pass for layer %s (%T)", l.Name(), l))
		}
	}
	for _, l := range net.Layers {
		walk(l)
	}
	return m
}

// add registers the network tensor w, named as in caps.Network.Params.
func (m *Model) add(name string, w *tensor.Tensor) {
	p := newParam(name, w)
	m.params = append(m.params, p)
	m.grads[w] = p.G
}

// Params returns the trainable parameters in NewModel's order.
func (m *Model) Params() []*Param { return append([]*Param(nil), m.params...) }

// ZeroGrad clears all gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// tape is the injector of a training forward pass: it records the tensor
// each site saw, and the last visit wins, so a routing layer's Softmax
// site ends up holding the final coupling coefficients. It keeps
// references, not copies. That is safe because training passes no scratch
// arena, so nothing is recycled, and no caps layer writes to a site tensor
// after injecting it. The one exception is the routing logits, which the
// agreement update keeps adding to; backward never reads them.
type tape map[noise.Site]*tensor.Tensor

// Inject implements noise.Injector.
func (t tape) Inject(s noise.Site, x *tensor.Tensor) *tensor.Tensor {
	t[s] = x
	return x
}

// trainBackend is the float backend with training's own class-capsule vote
// loop: one serial dot product per vote instead of Float's four-lane
// MatVecT. The trained weights depend on that summation order.
type trainBackend struct{ caps.Float }

// CapsVotes implements caps.Backend.
func (trainBackend) CapsVotes(_ string, u, w *tensor.Tensor, _ *tensor.Scratch, _ *int64) *tensor.Tensor {
	n, inCaps, inDim := u.Shape[0], u.Shape[1], u.Shape[2]
	rows := w.Shape[1] * w.Shape[2] // outCaps·outDim votes per input capsule
	votes := tensor.New(n, inCaps, w.Shape[1], w.Shape[2], 1)
	for b := 0; b < n; b++ {
		for i := 0; i < inCaps; i++ {
			ui := u.Data[(b*inCaps+i)*inDim : (b*inCaps+i+1)*inDim]
			for r := 0; r < rows; r++ {
				row := w.Data[(i*rows+r)*inDim : (i*rows+r+1)*inDim]
				s := 0.0
				for e, uv := range ui {
					s += row[e] * uv
				}
				votes.Data[(b*inCaps+i)*rows+r] = s
			}
		}
	}
	return votes
}

// Forward runs the network's own layers on x — on trainBackend, with no
// scratch arena, under a fresh tape — and keeps each top-level layer's
// input for Backward.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	m.tape = tape{}
	m.inputs = m.inputs[:0]
	for _, l := range m.Net.Layers {
		m.inputs = append(m.inputs, x)
		x = l.Forward(x, m.tape, nil, trainBackend{})
	}
	return x
}

// Backward propagates gy, the loss gradient with respect to the last
// Forward's output, through every layer, accumulating the parameter
// gradients, and returns the gradient with respect to the input.
func (m *Model) Backward(gy *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Net.Layers) - 1; i >= 0; i-- {
		gy = m.backward(m.Net.Layers[i], m.inputs[i], gy)
	}
	return gy
}

// site returns the tensor the last Forward recorded at a layer's site.
func (m *Model) site(layer string, g noise.Group) *tensor.Tensor {
	return m.tape[noise.Site{Layer: layer, Group: g}]
}

// backward differentiates layer l, whose input was x, given the gradient
// gy of its output, and returns the gradient with respect to x.
func (m *Model) backward(l caps.Layer, x, gy *tensor.Tensor) *tensor.Tensor {
	switch t := l.(type) {
	case *caps.Conv2D:
		if t.ReLU {
			gy = tensor.ReLUBackward(m.site(t.LayerName, noise.MACOutputs), gy)
		}
		return m.conv(x, t.W, t.B, gy, t.Stride, t.Pad)
	case *caps.ConvCaps2D:
		pre := m.site(t.LayerName, noise.MACOutputs)
		n, h, w := pre.Shape[0], pre.Shape[2], pre.Shape[3]
		g := tensor.SquashBackward(pre.Reshape(n, t.Caps, t.Dim, h, w), gy.Reshape(n, t.Caps, t.Dim, h, w), 2)
		return m.conv(x, t.W, t.B, g.Reshape(n, t.Caps*t.Dim, h, w), t.Stride, t.Pad)
	case *caps.ConvCaps3D:
		return m.convCaps3D(t, x, gy)
	case *caps.ClassCaps:
		return m.classCaps(t, x, gy)
	case *caps.CapsCell:
		// The inner layers read L1's and L2's outputs: their Activations.
		a, b := m.output(t.L1), m.output(t.L2)
		gMain := m.backward(t.L2, a, m.backward(t.L3, b, gy))
		gSkip := m.backward(t.Skip, a, gy)
		return m.backward(t.L1, x, tensor.Add(gMain, gSkip))
	}
	panic(fmt.Sprintf("train: no backward pass for layer %s (%T)", l.Name(), l))
}

// output returns a ConvCaps2D layer's recorded output, its Activations
// site [n, caps, dim, h, w], in the NCHW shape the next layer read.
func (m *Model) output(l *caps.ConvCaps2D) *tensor.Tensor {
	a := m.site(l.LayerName, noise.Activations)
	return a.Reshape(a.Shape[0], l.Caps*l.Dim, a.Shape[3], a.Shape[4])
}

// conv back-propagates gy through the convolution of x with w and bias b,
// accumulates their gradients and returns the input gradient.
func (m *Model) conv(x, w, b, gy *tensor.Tensor, stride, pad int) *tensor.Tensor {
	gx, gw, gb := tensor.Conv2DBackwardScratch(x, w, gy, stride, pad, m.s)
	m.grads[w].AddInPlace(gw)
	m.grads[b].AddInPlace(gb)
	return gx
}

// convCaps3D differentiates a ConvCaps3D layer: routing first, then each
// input capsule's vote convolution.
func (m *Model) convCaps3D(l *caps.ConvCaps3D, x, gy *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, k := gy.Shape[2], gy.Shape[3], l.W.Shape[4]
	gvotes := m.routing(l.LayerName, gy)
	rows := l.OutCaps * l.OutDim // vote channels per input capsule
	in, out, wsz := l.InDim*h*w, rows*oh*ow, rows*l.InDim*k*k
	gx := tensor.New(x.Shape...)
	gW := m.grads[l.W]
	sub, gout := m.s.Take(n, l.InDim, h, w), m.s.Take(n, rows, oh, ow)
	for i := 0; i < l.InCaps; i++ {
		for b := 0; b < n; b++ {
			copy(sub.Data[b*in:(b+1)*in], x.Data[(b*l.InCaps+i)*in:])
			copy(gout.Data[b*out:(b+1)*out], gvotes.Data[(b*l.InCaps+i)*out:])
		}
		wi := tensor.NewFrom(l.W.Data[i*wsz:(i+1)*wsz], rows, l.InDim, k, k)
		gsub, gw, _ := tensor.Conv2DBackwardScratch(sub, wi, gout, l.Stride, l.Pad, m.s)
		tensor.NewFrom(gW.Data[i*wsz:(i+1)*wsz], gw.Shape...).AddInPlace(gw)
		for b := 0; b < n; b++ {
			copy(gx.Data[(b*l.InCaps+i)*in:(b*l.InCaps+i+1)*in], gsub.Data[b*in:])
		}
	}
	m.s.Release(sub, gout, gvotes)
	return gx
}

// classCaps differentiates a ClassCaps layer: routing first, then the
// vote matrices, with the input flattened by the forward pass's own code.
func (m *Model) classCaps(l *caps.ClassCaps, x, gy *tensor.Tensor) *tensor.Tensor {
	u := caps.FlattenToCaps(x, l.InCaps, l.InDim)
	gvotes := m.routing(l.LayerName, gy)
	gW := m.grads[l.W]
	n := x.Shape[0]
	gu := tensor.New(u.Shape...)
	for b := 0; b < n; b++ {
		for i := 0; i < l.InCaps; i++ {
			ui := u.Data[(b*l.InCaps+i)*l.InDim : (b*l.InCaps+i+1)*l.InDim]
			gui := gu.Data[(b*l.InCaps+i)*l.InDim : (b*l.InCaps+i+1)*l.InDim]
			for j := 0; j < l.OutCaps; j++ {
				base := ((b*l.InCaps+i)*l.OutCaps + j) * l.OutDim
				for d := 0; d < l.OutDim; d++ {
					g := gvotes.Data[base+d]
					if g == 0 {
						continue
					}
					wRow := l.W.Data[((i*l.OutCaps+j)*l.OutDim+d)*l.InDim:]
					gwRow := gW.Data[((i*l.OutCaps+j)*l.OutDim+d)*l.InDim:]
					for e := 0; e < l.InDim; e++ {
						gwRow[e] += g * ui[e]
						gui[e] += g * wRow[e]
					}
				}
			}
		}
	}
	m.s.Release(gvotes)
	return unflattenFromCaps(gu, x.Shape, l.InDim)
}

// routing back-propagates a routing layer's output gradient gy through
// its last squash and weighted sum, holding the final coupling
// coefficients constant (straight-through), and returns the gradient with
// respect to the votes, [n, inCaps, outCaps, outDim, pos], from the
// backward arena. The pre-squash sum is recomputed by the forward pass's
// own code.
func (m *Model) routing(layer string, gy *tensor.Tensor) *tensor.Tensor {
	votes, k := m.site(layer, noise.MACOutputs), m.site(layer, noise.Softmax)
	s := caps.WeightedVotes(k, votes, m.s)
	gs := tensor.SquashBackward(s, gy.Reshape(s.Shape...), 2)
	m.s.Release(s)
	n, inCaps, outCaps := votes.Shape[0], votes.Shape[1], votes.Shape[2]
	outDim, pos := votes.Shape[3], votes.Shape[4]
	gvotes := m.s.Take(votes.Shape...)
	for b := 0; b < n; b++ {
		for i := 0; i < inCaps; i++ {
			for j := 0; j < outCaps; j++ {
				kRow := k.Data[((b*inCaps+i)*outCaps+j)*pos:]
				for d := 0; d < outDim; d++ {
					gRow := gs.Data[((b*outCaps+j)*outDim+d)*pos:]
					dst := gvotes.Data[(((b*inCaps+i)*outCaps+j)*outDim+d)*pos:]
					for p := 0; p < pos; p++ {
						dst[p] = kRow[p] * gRow[p]
					}
				}
			}
		}
	}
	return gvotes
}

// unflattenFromCaps scatters a ClassCaps input gradient g [n, inCaps,
// inDim] back to the input's shape, inverting caps.FlattenToCaps.
func unflattenFromCaps(g *tensor.Tensor, xShape []int, inDim int) *tensor.Tensor {
	if len(xShape) == 3 {
		return g
	}
	n, ch, h, w := xShape[0], xShape[1], xShape[2], xShape[3]
	ctypes := ch / inDim
	out := tensor.New(n, ch, h, w)
	idx := 0
	for b := 0; b < n; b++ {
		for c := 0; c < ctypes; c++ {
			for p := 0; p < h*w; p++ {
				for d := 0; d < inDim; d++ {
					out.Data[((b*ctypes*inDim)+(c*inDim+d))*h*w+p] = g.Data[idx]
					idx++
				}
			}
		}
	}
	return out
}
