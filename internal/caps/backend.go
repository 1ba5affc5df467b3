package caps

import "redcane/internal/tensor"

// Backend is a pluggable execution strategy for the MAC-heavy kernels of
// a capsule network: plain convolutions, convolutional capsule votes and
// fully-connected capsule votes. The float reference path, the bit-exact
// quantized path and the approximate-multiplier path (internal/axe) are
// all implementations; the layer graph, squash/routing arithmetic and
// noise-injection sites stay in this package and are shared by every
// backend, so the noise-model prediction and the bit-accurate measurement
// run through one engine.
//
// Every capability is a method here, so a decorator (the nonlinearity
// and probe wrappers) embeds the Backend it wraps and declares only the
// methods it changes.
//
// Backends must be stateless per call (safe for concurrent use by worker
// goroutines) and deterministic: the same inputs produce the same bits
// regardless of scheduling, which the sweep engine's worker-count
// invariance relies on.
type Backend interface {
	// Name identifies the backend in telemetry and reports.
	Name() string
	// ExactBaseline returns the backend whose exact arithmetic this one
	// approximates: the reference pass for probe SQNR, and, by its Name,
	// the class of backends sharing cached clean-prefix activations. Two
	// backends with equal ExactBaseline().Name() produce bit-identical
	// activations on every layer before their frontier (see
	// Network.BackendFrontier) — all b-bit quantized backends share
	// "quant-exact-<b>"; the float path is "float". A backend that is
	// its own baseline gets no probe reference pass.
	ExactBaseline() Backend
	// ApproxLayer reports whether the named layer's MAC kernels deviate
	// from the exact baseline. The first such layer is the backend's
	// injection frontier: everything before it can be cached and replayed.
	ApproxLayer(layer string) bool
	// Nonlinearity selects the routing softmax and squash operators the
	// capsule layers apply; the zero value is the exact pair.
	Nonlinearity() Nonlinearity
	// Conv2D convolves x [n, inCh, h, w] with kernels w [outCh, inCh, kh,
	// kw] plus optional bias [outCh] (nil = none). The result may come
	// from the scratch arena; callers release it when done. A non-nil
	// ovf accumulates the call's modeled accumulator overflows (always
	// zero on the float path) without changing any output bit; layers
	// pass nil.
	Conv2D(layer string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch, ovf *int64) *tensor.Tensor
	// CapsVotes computes fully-connected capsule votes û[b,i,j,d] =
	// Σ_e W[i,j,d,e]·u[b,i,e] for u [n, inCaps, inDim] and w [inCaps,
	// outCaps, outDim, inDim], returning [n, inCaps, outCaps, outDim, 1].
	// The result may come from the scratch arena; callers release it.
	// ovf is as for Conv2D.
	CapsVotes(layer string, u, w *tensor.Tensor, s *tensor.Scratch, ovf *int64) *tensor.Tensor
}

// Float is the reference backend: exact IEEE-754 float64 arithmetic.
// It is the zero-cost default everywhere a Backend is optional.
type Float struct{}

// Name implements Backend.
func (Float) Name() string { return "float" }

// ExactBaseline implements Backend: the float path is its own baseline.
func (Float) ExactBaseline() Backend { return Float{} }

// ApproxLayer implements Backend: the float path is the baseline itself.
func (Float) ApproxLayer(string) bool { return false }

// Nonlinearity implements Backend: the exact pair.
func (Float) Nonlinearity() Nonlinearity { return Nonlinearity{} }

// Conv2D implements Backend via the im2col float kernel; float
// accumulation never overflows, so ovf is untouched.
func (Float) Conv2D(_ string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch, _ *int64) *tensor.Tensor {
	return tensor.Conv2DScratch(x, w, bias, stride, pad, s)
}

// CapsVotes implements Backend. For one input capsule, the outCaps·outDim
// weight rows are contiguous with stride inDim, which is exactly the
// MatVecT shape — the vote stage rides the shared-load dot tile.
func (Float) CapsVotes(_ string, u, w *tensor.Tensor, s *tensor.Scratch, _ *int64) *tensor.Tensor {
	n, inCaps, inDim := u.Shape[0], u.Shape[1], u.Shape[2]
	outCaps, outDim := w.Shape[1], w.Shape[2]
	votes := s.Take(n, inCaps, outCaps, outDim, 1)
	rows := outCaps * outDim
	for b := 0; b < n; b++ {
		for i := 0; i < inCaps; i++ {
			ui := u.Data[(b*inCaps+i)*inDim : (b*inCaps+i+1)*inDim]
			dst := votes.Data[(b*inCaps+i)*rows : (b*inCaps+i+1)*rows]
			tensor.MatVecT(dst, ui, w.Data[i*rows*inDim:], inDim)
		}
	}
	return votes
}
