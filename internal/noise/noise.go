// Package noise implements the ReD-CaNe noise-injection model (Sec. III-C
// of the paper): the effect of running an operation on approximate
// hardware is simulated by adding Gaussian noise to the operation's output
// tensor, scaled by the tensor's dynamic range:
//
//	ΔX = Gauss(shape, NM·R(X)) + NA·R(X)      (Eq. 3)
//	X′ = X + ΔX                               (Eq. 4)
//
// where R(X) = max(X) − min(X), NM is the noise magnitude (std/R) and NA
// the noise average (mean/R) of the approximate component driving that
// operation.
//
// Injection points are identified by a Site: the layer that produced the
// tensor and the operation group it belongs to (Table III).
package noise

import "redcane/internal/tensor"

// Group classifies a CapsNet operation per Table III of the paper.
type Group int

const (
	// MACOutputs marks outputs of matrix multiplications / convolutions.
	MACOutputs Group = iota
	// Activations marks outputs of activation functions (ReLU, squash).
	Activations
	// Softmax marks the k coupling coefficients of dynamic routing.
	Softmax
	// LogitsUpdate marks the update of the b logits in dynamic routing.
	LogitsUpdate
	numGroups
)

// Groups lists all operation groups in Table III order.
func Groups() []Group {
	return []Group{MACOutputs, Activations, Softmax, LogitsUpdate}
}

// String returns the paper's name for the group.
func (g Group) String() string {
	switch g {
	case MACOutputs:
		return "MAC outputs"
	case Activations:
		return "activations"
	case Softmax:
		return "softmax"
	case LogitsUpdate:
		return "logits update"
	default:
		return "unknown"
	}
}

// Description returns the Table III description of the group.
func (g Group) Description() string {
	switch g {
	case MACOutputs:
		return "Outputs of the matrix multiplications"
	case Activations:
		return "Output of the activation functions (RELU or SQUASH)"
	case Softmax:
		return "Results of the softmax (k coefficients in dynamic routing)"
	case LogitsUpdate:
		return "Update of the logits (b coefficients in dynamic routing)"
	default:
		return "unknown"
	}
}

// Site is a single injection point: one operation of one layer.
type Site struct {
	// Layer names the layer, e.g. "Conv2D", "Caps2D7", "Caps3D",
	// "ClassCaps".
	Layer string
	// Group is the operation class of the produced tensor.
	Group Group
}

// Injector perturbs tensors at injection sites during a forward pass.
// Implementations may mutate x in place and must return the tensor to use
// downstream.
type Injector interface {
	Inject(site Site, x *tensor.Tensor) *tensor.Tensor
}

// None is the no-op injector (accurate inference).
type None struct{}

// Inject returns x unchanged.
func (None) Inject(_ Site, x *tensor.Tensor) *tensor.Tensor { return x }

// Split implements Splitter; every stream of a no-op injector is a no-op.
func (None) Split(uint64) Injector { return None{} }

// Splitter is an Injector that can derive independent per-stream
// injectors from a counter. Evaluation engines use it to process batches
// concurrently while staying bit-identical to serial evaluation: batch i
// always runs under Split(i), whose noise depends only on (base seed,
// stream counter, site visit order) — never on goroutine scheduling.
type Splitter interface {
	Injector
	// Split returns an injector whose randomness is a pure function of
	// the receiver's configuration and the stream counter. Distinct
	// streams are statistically independent; equal streams are
	// bit-identical.
	Split(stream uint64) Injector
}

// StreamSeed derives a decorrelated RNG seed from a base seed and a
// sequence of counters (sweep point, trial, batch index, …). It applies
// the splitmix64 finalizer after folding in each counter, so nearby
// counter tuples map to statistically independent seeds — the
// counter-based seeding scheme that makes parallel sweeps deterministic
// regardless of scheduling.
func StreamSeed(base uint64, counters ...uint64) uint64 {
	h := base
	for _, c := range counters {
		h += 0x9e3779b97f4a7c15 // golden-ratio increment separates counters
		h ^= c
		// splitmix64 finalizer.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Filter selects the sites an injector is active on.
type Filter func(Site) bool

// All activates every site.
func All() Filter { return func(Site) bool { return true } }

// ForGroup activates every site of one operation group (the group-wise
// resilience analysis, methodology Step 2).
func ForGroup(g Group) Filter {
	return func(s Site) bool { return s.Group == g }
}

// ForLayerGroup activates a single (layer, group) pair (the layer-wise
// analysis, methodology Step 4).
func ForLayerGroup(layer string, g Group) Filter {
	return func(s Site) bool { return s.Layer == layer && s.Group == g }
}

// ForSites activates exactly the listed sites.
func ForSites(sites ...Site) Filter {
	set := make(map[Site]bool, len(sites))
	for _, s := range sites {
		set[s] = true
	}
	return func(s Site) bool { return set[s] }
}

// Gaussian implements the paper's noise model on the sites selected by its
// filter. It is deterministic for a fixed seed and a fixed sequence of
// Inject calls; a forward pass visits sites in a fixed order, so repeated
// evaluations with equal seeds produce identical noise. Not safe for
// concurrent use.
type Gaussian struct {
	// NM and NA are the noise magnitude and noise average relative to
	// each tensor's dynamic range.
	NM, NA float64
	// RangeFn computes R(X); nil means the paper's max−min (Eq. 3).
	// Substituting a robust estimator (e.g. a percentile spread) is the
	// range-estimator ablation.
	RangeFn func(*tensor.Tensor) float64
	filter  Filter
	seed    uint64
	rng     interface {
		NormFloat64() float64
	}
}

// NewGaussian builds an injector adding noise with the given NM and NA on
// sites accepted by filter, using a deterministic RNG for the seed.
func NewGaussian(nm, na float64, filter Filter, seed uint64) *Gaussian {
	if filter == nil {
		filter = All()
	}
	return &Gaussian{
		NM:     nm,
		NA:     na,
		filter: filter,
		seed:   seed,
		rng:    tensor.NewRNG(seed),
	}
}

// Split implements Splitter: the returned injector shares the receiver's
// NM/NA/filter/RangeFn but draws from an RNG seeded by
// StreamSeed(seed, stream), so per-batch noise depends only on the base
// seed and the batch counter.
func (g *Gaussian) Split(stream uint64) Injector {
	c := NewGaussian(g.NM, g.NA, g.filter, StreamSeed(g.seed, stream))
	c.RangeFn = g.RangeFn
	return c
}

// Inject applies Eq. 3–4 in place when the site is selected.
func (g *Gaussian) Inject(site Site, x *tensor.Tensor) *tensor.Tensor {
	if !g.filter(site) {
		return x
	}
	if g.NM == 0 && g.NA == 0 {
		return x
	}
	r := 0.0
	if g.RangeFn != nil {
		r = g.RangeFn(x)
	} else {
		r = x.Range()
	}
	std := g.NM * r
	mean := g.NA * r
	for i := range x.Data {
		x.Data[i] += mean + std*g.rng.NormFloat64()
	}
	return x
}

// SiteRecorder is an Injector that only records the sites it sees, in
// visit order, without perturbing anything. The methodology's Step 1
// (group extraction) runs one forward pass with a SiteRecorder to
// enumerate a network's injection points.
type SiteRecorder struct {
	Order []Site
	seen  map[Site]bool
}

// NewSiteRecorder returns an empty recorder.
func NewSiteRecorder() *SiteRecorder {
	return &SiteRecorder{seen: make(map[Site]bool)}
}

// Inject records the site and returns x unchanged.
func (r *SiteRecorder) Inject(site Site, x *tensor.Tensor) *tensor.Tensor {
	if !r.seen[site] {
		r.seen[site] = true
		r.Order = append(r.Order, site)
	}
	return x
}

// ByGroup partitions the recorded sites per operation group, preserving
// visit order within each group.
func (r *SiteRecorder) ByGroup() map[Group][]Site {
	out := make(map[Group][]Site)
	for _, s := range r.Order {
		out[s.Group] = append(out[s.Group], s)
	}
	return out
}
