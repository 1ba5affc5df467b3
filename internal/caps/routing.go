package caps

import (
	"redcane/internal/energy"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// ConvCaps3D is DeepCaps' 3D convolutional capsule layer: each input
// capsule type votes, through its own convolution, for every output
// capsule, and the votes are combined by dynamic routing at each spatial
// position. This is one of the two routing layers the paper identifies as
// especially resilient (Sec. VI-D).
type ConvCaps3D struct {
	LayerName         string
	InCaps, InDim     int
	OutCaps, OutDim   int
	W                 *tensor.Tensor // [inCaps, outCaps*outDim, inDim, k, k]
	Stride, Pad       int
	RoutingIterations int
}

// Name implements Layer.
func (l *ConvCaps3D) Name() string { return l.LayerName }

// Forward implements Layer. The per-capsule vote convolutions run on the
// backend; routing-by-agreement stays in float, matching the paper's
// split between MAC arrays and the routing datapath.
func (l *ConvCaps3D) Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	votes, oh, ow := l.votes(x, s, be)
	votes = inj.Inject(noise.Site{Layer: l.LayerName, Group: noise.MACOutputs}, votes)
	v := dynamicRouting(votes, l.LayerName, l.RoutingIterations, inj, s, nonlinearityOf(be))
	s.Release(votes)
	n := x.Shape[0]
	return v.Reshape(n, l.OutCaps*l.OutDim, oh, ow)
}

// votes computes the per-input-capsule convolution votes, shape
// [n, inCaps, outCaps, outDim, oh*ow]. The returned tensor comes from the
// scratch arena (every element is overwritten); the caller releases it.
func (l *ConvCaps3D) votes(x *tensor.Tensor, s *tensor.Scratch, be Backend) (v *tensor.Tensor, oh, ow int) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	k := l.W.Shape[3]
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: l.Stride, Pad: l.Pad}
	oh, ow = spec.OutSize(h, w)
	xi := x.Reshape(n, l.InCaps, l.InDim, h, w)
	votes := s.Take(n, l.InCaps, l.OutCaps, l.OutDim, oh*ow)
	sub := s.Take(n, l.InDim, h, w)
	for i := 0; i < l.InCaps; i++ {
		// Slice input capsule i: [n, inDim, h, w].
		for b := 0; b < n; b++ {
			src := xi.Data[((b*l.InCaps+i)*l.InDim)*h*w : ((b*l.InCaps+i)*l.InDim+l.InDim)*h*w]
			copy(sub.Data[b*l.InDim*h*w:], src)
		}
		wi := tensor.NewFrom(
			l.W.Data[i*l.OutCaps*l.OutDim*l.InDim*k*k:(i+1)*l.OutCaps*l.OutDim*l.InDim*k*k],
			l.OutCaps*l.OutDim, l.InDim, k, k)
		out := be.Conv2D(l.LayerName, sub, wi, nil, l.Stride, l.Pad, s) // [n, outCaps*outDim, oh, ow]
		for b := 0; b < n; b++ {
			src := out.Data[b*l.OutCaps*l.OutDim*oh*ow : (b+1)*l.OutCaps*l.OutDim*oh*ow]
			dst := votes.Data[((b*l.InCaps+i)*l.OutCaps*l.OutDim)*oh*ow:]
			copy(dst, src)
		}
		s.Release(out)
	}
	s.Release(sub)
	return votes, oh, ow
}

// Sites implements Layer.
func (l *ConvCaps3D) Sites() []noise.Site {
	return routingSites(l.LayerName)
}

// Params implements Layer.
func (l *ConvCaps3D) Params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{l.LayerName + "/W": l.W}
}

// Ops implements Layer.
func (l *ConvCaps3D) Ops(inShape []int) (energy.Counts, []int) {
	n, h, w := inShape[0], inShape[2], inShape[3]
	k := l.W.Shape[3]
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: l.Stride, Pad: l.Pad}
	oh, ow := spec.OutSize(h, w)
	votes := energy.Conv2DOps(oh, ow, l.OutCaps*l.OutDim, l.InDim, k, k).Scale(float64(l.InCaps))
	routing := energy.RoutingOps(l.InCaps, l.OutCaps, l.OutDim).
		Scale(float64(oh * ow * l.RoutingIterations))
	c := votes.Plus(routing).Scale(float64(n))
	return c, []int{n, l.OutCaps * l.OutDim, oh, ow}
}

// ClassCaps is the fully-connected capsule layer with dynamic routing
// (CapsNet's DigitCaps / DeepCaps' final layer). The input NCHW tensor is
// interpreted as one capsule of dimension InDim per (channel-group,
// position); each votes for every output class capsule through a learned
// InDim×OutDim matrix.
type ClassCaps struct {
	LayerName         string
	InCaps, InDim     int // InCaps counts capsules after flattening spatially
	OutCaps, OutDim   int
	W                 *tensor.Tensor // [inCaps, outCaps, outDim, inDim]
	RoutingIterations int
}

// Name implements Layer.
func (l *ClassCaps) Name() string { return l.LayerName }

// Forward implements Layer. The input may be [n, caps*dim, h, w] (capsule
// types replicated over positions) or already [n, inCaps, inDim]. The
// vote MACs run on the backend; routing-by-agreement stays in float.
func (l *ClassCaps) Forward(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	n := x.Shape[0]
	u := flattenToCaps(x, l.InCaps, l.InDim)
	votes := be.CapsVotes(l.LayerName, u, l.W, s)
	votes = inj.Inject(noise.Site{Layer: l.LayerName, Group: noise.MACOutputs}, votes)
	v := dynamicRouting(votes, l.LayerName, l.RoutingIterations, inj, s, nonlinearityOf(be))
	if u != x {
		s.Release(u) // u was a flattening copy, not the caller's input
	}
	s.Release(votes)
	return v.Reshape(n, l.OutCaps, l.OutDim)
}

// FlattenCaps reinterprets x as [n, inCaps, inDim] with the network's
// capsule layout (position-major per type, inCaps = caps·h·w). Exported
// for external executors that mirror ClassCaps' vote stage.
func FlattenCaps(x *tensor.Tensor, inCaps, inDim int) *tensor.Tensor {
	return flattenToCaps(x, inCaps, inDim)
}

// flattenToCaps reinterprets x as [n, inCaps, inDim]. For a spatial input
// [n, caps·dim, h, w], capsules are laid out position-major per type so
// that inCaps = caps·h·w.
func flattenToCaps(x *tensor.Tensor, inCaps, inDim int) *tensor.Tensor {
	n := x.Shape[0]
	if x.Rank() == 3 {
		return x
	}
	ctypes := x.Shape[1] / inDim
	h, w := x.Shape[2], x.Shape[3]
	out := tensor.New(n, inCaps, inDim)
	idx := 0
	for b := 0; b < n; b++ {
		for c := 0; c < ctypes; c++ {
			for p := 0; p < h*w; p++ {
				for d := 0; d < inDim; d++ {
					out.Data[idx] = x.Data[((b*ctypes*inDim)+(c*inDim+d))*h*w+p]
					idx++
				}
			}
		}
	}
	return out
}

// Sites implements Layer.
func (l *ClassCaps) Sites() []noise.Site {
	return routingSites(l.LayerName)
}

// Params implements Layer.
func (l *ClassCaps) Params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{l.LayerName + "/W": l.W}
}

// Ops implements Layer.
func (l *ClassCaps) Ops(inShape []int) (energy.Counts, []int) {
	n := inShape[0]
	c := energy.CapsVotesOps(l.InCaps, l.OutCaps, l.InDim, l.OutDim)
	c = c.Plus(energy.RoutingOps(l.InCaps, l.OutCaps, l.OutDim).Scale(float64(l.RoutingIterations)))
	return c.Scale(float64(n)), []int{n, l.OutCaps, l.OutDim}
}

// routingSites lists the four Table III sites of a dynamic-routing layer.
func routingSites(layer string) []noise.Site {
	return []noise.Site{
		{Layer: layer, Group: noise.MACOutputs},
		{Layer: layer, Group: noise.Softmax},
		{Layer: layer, Group: noise.Activations},
		{Layer: layer, Group: noise.LogitsUpdate},
	}
}

// DynamicRouting exposes the routing-by-agreement kernel for external
// executors (e.g. the quantized approximate-execution engine), which
// compute the votes themselves and route them accurately with the exact
// nonlinearities.
// votes is [n, inCaps, outCaps, outDim, positions]; the result is
// [n, outCaps, outDim, positions].
func DynamicRouting(votes *tensor.Tensor, layer string, iterations int, inj noise.Injector) *tensor.Tensor {
	if inj == nil {
		inj = noise.None{}
	}
	return dynamicRouting(votes, layer, iterations, inj, nil, Nonlinearity{})
}

// dynamicRouting runs routing-by-agreement over votes of shape
// [n, inCaps, outCaps, outDim, positions] and returns the routed capsules
// [n, outCaps, outDim, positions]. Each Table III operation passes through
// the injector every iteration, exactly as the modified-TensorFlow-graph
// implementation of the paper injects at every executed node (Sec. V-B).
// The coupling softmax and output squash run through nl, so approximate
// nonlinearity variants flow through the identical loop and sites.
// Per-iteration temporaries recycle through the optional scratch arena.
func dynamicRouting(votes *tensor.Tensor, layer string, iterations int, inj noise.Injector, sc *tensor.Scratch, nl Nonlinearity) *tensor.Tensor {
	if iterations < 1 {
		iterations = 1
	}
	n, inCaps, outCaps := votes.Shape[0], votes.Shape[1], votes.Shape[2]
	outDim, pos := votes.Shape[3], votes.Shape[4]

	logits := sc.TakeZero(n, inCaps, outCaps, pos)
	var v *tensor.Tensor
	for it := 0; it < iterations; it++ {
		// Coupling coefficients k = softmax over output capsules.
		k := nl.softmax(logits, 2)
		k = inj.Inject(noise.Site{Layer: layer, Group: noise.Softmax}, k)

		// s[b, j, d, p] = Σ_i k[b, i, j, p] · û[b, i, j, d, p]
		s := sc.TakeZero(n, outCaps, outDim, pos)
		for b := 0; b < n; b++ {
			for i := 0; i < inCaps; i++ {
				for j := 0; j < outCaps; j++ {
					kOff := ((b*inCaps+i)*outCaps + j) * pos
					kRow := k.Data[kOff : kOff+pos : kOff+pos]
					for d := 0; d < outDim; d++ {
						vOff := ((((b*inCaps+i)*outCaps+j)*outDim + d) * pos)
						vRow := votes.Data[vOff : vOff+pos : vOff+pos]
						sOff := ((b*outCaps+j)*outDim + d) * pos
						sRow := s.Data[sOff : sOff+pos : sOff+pos]
						for p, kv := range kRow {
							sRow[p] += kv * vRow[p]
						}
					}
				}
			}
		}

		// v = squash(s) along the capsule dimension.
		prev := v
		v = nl.squash(s, 2)
		v = inj.Inject(noise.Site{Layer: layer, Group: noise.Activations}, v)
		sc.Release(k, s, prev)

		if it == iterations-1 {
			break
		}
		// Agreement update: b[b,i,j,p] += Σ_d û[b,i,j,d,p]·v[b,j,d,p].
		for b := 0; b < n; b++ {
			for i := 0; i < inCaps; i++ {
				for j := 0; j < outCaps; j++ {
					lOff := ((b*inCaps+i)*outCaps + j) * pos
					lRow := logits.Data[lOff : lOff+pos : lOff+pos]
					for d := 0; d < outDim; d++ {
						uOff := ((((b*inCaps+i)*outCaps+j)*outDim + d) * pos)
						uRow := votes.Data[uOff : uOff+pos : uOff+pos]
						vOff := ((b*outCaps+j)*outDim + d) * pos
						vRow := v.Data[vOff : vOff+pos : vOff+pos]
						for p, uv := range uRow {
							lRow[p] += uv * vRow[p]
						}
					}
				}
			}
		}
		logits = inj.Inject(noise.Site{Layer: layer, Group: noise.LogitsUpdate}, logits)
	}
	sc.Release(logits)
	return v
}
