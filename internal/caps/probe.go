package caps

import (
	"math"

	"redcane/internal/tensor"
)

// This file is the numeric-health probe seam: a Backend decorator that
// observes every MAC-kernel output (plain convolutions, convolutional
// capsule votes, class-capsule votes) flowing through the Backend
// interface and folds it into per-layer statistics — range, moments,
// SQNR against a clean reference pass, saturation against the reference
// range, and accumulator-overflow counts reported by the fixed-point
// backends. The decorator returns the wrapped backend's outputs
// untouched, so probing is provably inert: the probed pass produces the
// same bits as the unprobed one.

// ProbeLayerStats accumulates the numeric health of one layer's MAC
// outputs. All fields are raw sums so that stats from different jobs
// merge exactly; derived values (mean, variance, SQNR) are computed at
// emission time.
type ProbeLayerStats struct {
	Layer string  // layer name (the Backend call's layer argument)
	Count int64   // observed output elements
	Min   float64 // smallest observed output (+Inf when Count == 0)
	Max   float64 // largest observed output (-Inf when Count == 0)
	Sum   float64 // Σ out
	SumSq float64 // Σ out²

	// Reference comparison (zero when no reference pass ran).
	RefCount  int64   // elements compared against the reference
	RefSq     float64 // Σ ref² over compared elements
	ErrSq     float64 // Σ (out-ref)² over compared elements
	Saturated int64   // outputs outside the reference [min, max] range

	// Overflow counts accumulator saturations the backend's kernels
	// report through their ovf argument; always zero on the float path.
	Overflow int64
}

// Mean returns the mean observed output (0 when empty).
func (s ProbeLayerStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Variance returns the population variance of the observed outputs
// (0 when empty), clamped to be non-negative against rounding.
func (s ProbeLayerStats) Variance() float64 {
	if s.Count == 0 {
		return 0
	}
	m := s.Mean()
	v := s.SumSq/float64(s.Count) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// SQNRClampDB bounds reported SQNR values so they stay JSON-encodable
// (±Inf is not valid JSON). +SQNRClampDB means "no measurable error";
// -SQNRClampDB means "error with a silent reference".
const SQNRClampDB = 400.0

// SQNRdB returns the signal-to-quantization-noise ratio of the observed
// outputs against the reference, in dB, clamped to ±SQNRClampDB. With no
// reference comparison it returns 0 alongside RefCount == 0.
func (s ProbeLayerStats) SQNRdB() float64 {
	if s.RefCount == 0 {
		return 0
	}
	if s.ErrSq == 0 {
		return SQNRClampDB
	}
	if s.RefSq == 0 {
		return -SQNRClampDB
	}
	db := 10 * math.Log10(s.RefSq/s.ErrSq)
	return math.Max(-SQNRClampDB, math.Min(SQNRClampDB, db))
}

// MergeFrom folds o's sums into s. Both sides must describe the same
// layer. Merging in a fixed order keeps the float sums bit-identical
// across worker counts — the sweep engine merges per-job stats in
// ascending job order within each window.
func (s *ProbeLayerStats) MergeFrom(o ProbeLayerStats) {
	s.Count += o.Count
	s.Min = math.Min(s.Min, o.Min)
	s.Max = math.Max(s.Max, o.Max)
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	s.RefCount += o.RefCount
	s.RefSq += o.RefSq
	s.ErrSq += o.ErrSq
	s.Saturated += o.Saturated
	s.Overflow += o.Overflow
}

// probeRef is one recorded reference output, matched to observation
// calls by sequence position.
type probeRef struct {
	layer    string
	data     []float64
	min, max float64
}

// ProbeRecorder collects per-layer statistics for one classification
// pass (one job). It is single-goroutine state — each worker job uses
// its own recorder — and works in two phases: a reference phase that
// copies the clean outputs of every Backend call, then an observation
// phase that compares the probed pass's outputs call-by-call against
// those copies. The reference phase is optional; without it the
// observation phase still records ranges and moments (and overflow),
// just no SQNR or saturation.
type ProbeRecorder struct {
	layers    []ProbeLayerStats
	index     map[string]int
	refs      []probeRef
	refPos    int
	recording bool
}

// NewProbeRecorder returns an empty recorder in observation mode.
func NewProbeRecorder() *ProbeRecorder {
	return &ProbeRecorder{index: map[string]int{}}
}

// StartReference switches the recorder to the reference phase: Backend
// outputs are copied, not measured.
func (r *ProbeRecorder) StartReference() {
	r.recording = true
	r.refs = r.refs[:0]
	r.refPos = 0
}

// StartObserve switches the recorder to the observation phase, matching
// subsequent Backend calls against the recorded references in order.
func (r *ProbeRecorder) StartObserve() {
	r.recording = false
	r.refPos = 0
}

// layerAt returns the stats slot for the named layer, creating it in
// first-seen order. Every job runs the same forward sequence, so the
// order — and therefore the merged aggregation — is identical across
// jobs and worker counts.
func (r *ProbeRecorder) layerAt(layer string) *ProbeLayerStats {
	if i, ok := r.index[layer]; ok {
		return &r.layers[i]
	}
	r.index[layer] = len(r.layers)
	r.layers = append(r.layers, ProbeLayerStats{
		Layer: layer,
		Min:   math.Inf(1),
		Max:   math.Inf(-1),
	})
	return &r.layers[len(r.layers)-1]
}

// observe processes one Backend output and the accumulator overflows
// its call reported. During the reference phase the output is copied
// and the overflows are dropped: the reference backend's own overflows
// are not the probed signal.
func (r *ProbeRecorder) observe(layer string, out *tensor.Tensor, overflow int64) {
	if r.recording {
		ref := probeRef{layer: layer, data: append([]float64(nil), out.Data...), min: math.Inf(1), max: math.Inf(-1)}
		for _, v := range out.Data {
			ref.min = math.Min(ref.min, v)
			ref.max = math.Max(ref.max, v)
		}
		r.refs = append(r.refs, ref)
		return
	}
	st := r.layerAt(layer)
	st.Count += int64(len(out.Data))
	st.Overflow += overflow
	for _, v := range out.Data {
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
		st.Sum += v
		st.SumSq += v * v
	}
	if r.refPos < len(r.refs) {
		ref := r.refs[r.refPos]
		r.refPos++
		if ref.layer == layer && len(ref.data) == len(out.Data) {
			st.RefCount += int64(len(out.Data))
			for i, v := range out.Data {
				d := v - ref.data[i]
				st.ErrSq += d * d
				st.RefSq += ref.data[i] * ref.data[i]
				if v < ref.min || v > ref.max {
					st.Saturated++
				}
			}
		}
	}
}

// Layers returns a copy of the accumulated per-layer stats in
// first-seen (forward) order.
func (r *ProbeRecorder) Layers() []ProbeLayerStats {
	return append([]ProbeLayerStats(nil), r.layers...)
}

// ProbeBackend decorates a Backend with a ProbeRecorder: every MAC
// output, and the accumulator overflows its kernel call reports, is
// observed on the way through. Outputs pass through untouched; every
// other capability is the embedded backend's.
type ProbeBackend struct {
	Backend
	rec *ProbeRecorder
}

// NewProbeBackend wraps inner so every MAC output is observed by rec.
func NewProbeBackend(inner Backend, rec *ProbeRecorder) *ProbeBackend {
	return &ProbeBackend{Backend: inner, rec: rec}
}

// Conv2D implements Backend: delegate, observe, pass through. The inner
// call's overflows are recorded and added to the caller's ovf.
func (p *ProbeBackend) Conv2D(layer string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	var n int64
	out := p.Backend.Conv2D(layer, x, w, bias, stride, pad, s, &n)
	p.rec.observe(layer, out, n)
	addOverflow(ovf, n)
	return out
}

// CapsVotes implements Backend like Conv2D.
func (p *ProbeBackend) CapsVotes(layer string, u, w *tensor.Tensor, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	var n int64
	out := p.Backend.CapsVotes(layer, u, w, s, &n)
	p.rec.observe(layer, out, n)
	addOverflow(ovf, n)
	return out
}

// addOverflow adds n to a caller's overflow tally, if it keeps one.
func addOverflow(ovf *int64, n int64) {
	if ovf != nil {
		*ovf += n
	}
}
