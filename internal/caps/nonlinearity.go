package caps

import (
	"redcane/internal/tensor"
)

// This file is the nonlinearity seam: softmax and squash — the two
// routing-datapath operators that run in float on every backend — become
// pluggable here, selected by Backend.Nonlinearity, so behavioral models of
// hardware-approximated nonlinearities (internal/approx: base-2 and
// piecewise-linear softmax, Newton-free squash) run through the same
// forward paths, injection sites, probes and prefix caching as the exact
// defaults. The seam mirrors the Backend seam's invariants: a backend
// carrying a non-exact Nonlinearity changes activations only from the
// first layer that applies a swapped operator onward
// (Network.NonlinearityFrontier), so everything before that layer stays
// cacheable with the backend's exact baseline.

// NonlinearFn is the shape of a softmax/squash operator: a normalization
// along one axis returning a new tensor (matching tensor.Softmax and
// tensor.Squash).
type NonlinearFn func(t *tensor.Tensor, axis int) *tensor.Tensor

// Nonlinearity selects the routing nonlinearity implementations. The
// zero value is the exact pair (tensor.Softmax / tensor.Squash): nil
// functions keep the bit-exact default paths, so existing construction
// sites need no changes.
type Nonlinearity struct {
	// SoftmaxName / SquashName label the variants for telemetry, probe
	// output and fingerprints ("" means exact).
	SoftmaxName, SquashName string
	// SoftmaxFn / SquashFn are the operator implementations; nil selects
	// the exact tensor kernels.
	SoftmaxFn, SquashFn NonlinearFn
}

// Exact reports whether both operators are the bit-exact defaults.
func (nl Nonlinearity) Exact() bool { return nl.SoftmaxFn == nil && nl.SquashFn == nil }

// Tag renders the non-exact selections compactly ("sm=base2,sq=sqnorm"),
// empty for the exact pair. It feeds backend names and fingerprints.
func (nl Nonlinearity) Tag() string {
	tag := ""
	if nl.SoftmaxFn != nil {
		tag = "sm=" + nl.SoftmaxName
	}
	if nl.SquashFn != nil {
		if tag != "" {
			tag += ","
		}
		tag += "sq=" + nl.SquashName
	}
	return tag
}

// softmax applies the selected softmax operator.
func (nl Nonlinearity) softmax(t *tensor.Tensor, axis int) *tensor.Tensor {
	if nl.SoftmaxFn == nil {
		return tensor.Softmax(t, axis)
	}
	return nl.SoftmaxFn(t, axis)
}

// squash applies the selected squash operator.
func (nl Nonlinearity) squash(t *tensor.Tensor, axis int) *tensor.Tensor {
	if nl.SquashFn == nil {
		return tensor.Squash(t, axis)
	}
	return nl.SquashFn(t, axis)
}

// WithNonlinearity decorates be so forward passes use nl's softmax and
// squash. An exact nl returns be unchanged — the decorated and
// undecorated exact paths are not just bit-identical but the same code.
// The decorated backend keeps be's ExactBaseline — the probe reference
// for an approximated nonlinearity is the exact signal, and activations
// before the nonlinearity frontier are unaffected, so prefix caches may
// still be shared with be — but extends its Name, keeping telemetry and
// probe reference passes distinct.
func WithNonlinearity(be Backend, nl Nonlinearity) Backend {
	if nl.Exact() {
		return be
	}
	return &nlBackend{Backend: be, nl: nl}
}

// nlBackend is the Nonlinearity-carrying Backend decorator. Every other
// capability, MAC kernels included, is the embedded backend's.
type nlBackend struct {
	Backend
	nl Nonlinearity
}

// Nonlinearity implements Backend.
func (b *nlBackend) Nonlinearity() Nonlinearity { return b.nl }

// Name implements Backend: the inner name plus the variant tag, so
// telemetry and probe output distinguish the approximated run.
func (b *nlBackend) Name() string { return b.Backend.Name() + "+" + b.nl.Tag() }

// NonlinearityFrontier returns the index of the first layer whose output
// depends on nl's swapped operators, or len(n.Layers) for the exact
// pair. A swapped squash reaches every capsule layer; a swapped softmax
// only the dynamic-routing layers. Layers before the frontier produce
// bit-identical activations with or without nl — the invariant that lets
// the sweep engine keep its clean-prefix cache (keyed by the backend's
// exact baseline) across nonlinearity variants.
func (n *Network) NonlinearityFrontier(nl Nonlinearity) int {
	if nl.Exact() {
		return len(n.Layers)
	}
	var affected func(l Layer) bool
	affected = func(l Layer) bool {
		switch t := l.(type) {
		case *ConvCaps2D:
			return nl.SquashFn != nil
		case *ConvCaps3D, *ClassCaps:
			// Routing layers apply both operators every iteration.
			return true
		case *CapsCell:
			return affected(t.L1) || affected(t.L2) || affected(t.L3) || affected(t.Skip)
		default:
			return false
		}
	}
	for li, l := range n.Layers {
		if affected(l) {
			return li
		}
	}
	return len(n.Layers)
}
