package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"redcane/internal/caps"
)

// This file aggregates the numeric-health probes (caps.ProbeRecorder)
// collected by the engine into a reportable artifact. The probes are
// opt-in (Analyzer.Probes == nil keeps every evaluation untouched) and
// provably inert: the probed classification pass is the result pass —
// the decorator returns outputs unchanged — so reports and checkpoints
// are byte-identical with probing on or off. Aggregation is
// deterministic: a fold buffers each job's per-layer stats and merges
// them in one fixed order — evaluations ascending, and within one every
// batch ascending — with layers in forward order, so every float sum is
// bit-identical across worker counts and window layouts.
//
// Probe data is never checkpointed. A fold resumed from a checkpoint only
// probes the windows it actually re-runs; the emitted stats then cover
// the un-resumed remainder (the engine warns in that case).

// ProbeLayer is the emitted numeric health of one layer at one sweep
// point. SQNRdB is clamped to ±caps.SQNRClampDB (JSON cannot carry
// ±Inf) and meaningful only when RefCount > 0; Saturated counts outputs
// outside the reference pass's [min, max]; Overflow counts accumulator
// saturations under the fixed-point backends' hardware model (always 0
// on the float path).
type ProbeLayer struct {
	Layer     string  `json:"layer"`
	Count     int64   `json:"count"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Mean      float64 `json:"mean"`
	Variance  float64 `json:"variance"`
	SQNRdB    float64 `json:"sqnr_db"`
	RefCount  int64   `json:"ref_count"`
	Saturated int64   `json:"saturated"`
	Overflow  int64   `json:"overflow"`
}

// ProbePoint is one sweep point's per-layer health, in forward order.
type ProbePoint struct {
	NM     float64      `json:"nm"`
	Layers []ProbeLayer `json:"layers"`
}

// ProbeSweep is the probe record of one sweep (or one backend
// evaluation, which is a single point at NM = 0).
type ProbeSweep struct {
	Label   string       `json:"label"`
	Backend string       `json:"backend"`
	Points  []ProbePoint `json:"points"`
}

// ProbeSet collects probe sweeps across an analysis run. It is safe for
// concurrent use (distinct sweeps may come from concurrent jobs of the
// analysis service); within one sweep, aggregation order is fixed by
// the engine.
type ProbeSet struct {
	mu     sync.Mutex
	sweeps []ProbeSweep
}

// NewProbeSet returns an empty collection.
func NewProbeSet() *ProbeSet { return &ProbeSet{} }

// add appends one completed sweep's record.
func (ps *ProbeSet) add(sw ProbeSweep) {
	if ps == nil {
		return
	}
	ps.mu.Lock()
	ps.sweeps = append(ps.sweeps, sw)
	ps.mu.Unlock()
}

// Sweeps returns a copy of the collected records in collection order.
func (ps *ProbeSet) Sweeps() []ProbeSweep {
	if ps == nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]ProbeSweep(nil), ps.sweeps...)
}

// WriteJSON serializes the collection as {"sweeps": [...]} (indented).
func (ps *ProbeSet) WriteJSON(w io.Writer) error {
	doc := struct {
		Sweeps []ProbeSweep `json:"sweeps"`
	}{Sweeps: ps.Sweeps()}
	if doc.Sweeps == nil {
		doc.Sweeps = []ProbeSweep{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: write probes: %w", err)
	}
	return nil
}

// WriteCSV serializes the collection as one row per (sweep, point,
// layer).
func (ps *ProbeSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"label", "backend", "nm", "layer", "count",
		"min", "max", "mean", "variance",
		"sqnr_db", "ref_count", "saturated", "overflow",
	}); err != nil {
		return fmt.Errorf("core: write probes csv: %w", err)
	}
	for _, sw := range ps.Sweeps() {
		for _, pt := range sw.Points {
			for _, l := range pt.Layers {
				rec := []string{
					sw.Label, sw.Backend,
					fmt.Sprintf("%g", pt.NM),
					l.Layer,
					fmt.Sprintf("%d", l.Count),
					fmt.Sprintf("%g", l.Min),
					fmt.Sprintf("%g", l.Max),
					fmt.Sprintf("%g", l.Mean),
					fmt.Sprintf("%g", l.Variance),
					fmt.Sprintf("%g", l.SQNRdB),
					fmt.Sprintf("%d", l.RefCount),
					fmt.Sprintf("%d", l.Saturated),
					fmt.Sprintf("%d", l.Overflow),
				}
				if err := cw.Write(rec); err != nil {
					return fmt.Errorf("core: write probes csv: %w", err)
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("core: write probes csv: %w", err)
	}
	return nil
}

// probeAccum merges per-job layer stats for one sweep point, keeping
// layers in first-seen (forward) order so the merged result — float
// sums included — is bit-identical for any worker count.
type probeAccum struct {
	layers []caps.ProbeLayerStats
	index  map[string]int
}

func newProbeAccum() *probeAccum { return &probeAccum{index: map[string]int{}} }

// merge folds one job's stats in. Jobs run the same forward sequence,
// so the layer order is identical across jobs.
func (p *probeAccum) merge(stats []caps.ProbeLayerStats) {
	for _, st := range stats {
		i, ok := p.index[st.Layer]
		if !ok {
			i = len(p.layers)
			p.index[st.Layer] = i
			p.layers = append(p.layers, caps.ProbeLayerStats{
				Layer: st.Layer,
				Min:   math.Inf(1),
				Max:   math.Inf(-1),
			})
		}
		p.layers[i].MergeFrom(st)
	}
}

// emit converts the merged sums into the reportable form.
func (p *probeAccum) emit() []ProbeLayer {
	if p == nil {
		return nil
	}
	out := make([]ProbeLayer, len(p.layers))
	for i, st := range p.layers {
		pl := ProbeLayer{
			Layer:     st.Layer,
			Count:     st.Count,
			Mean:      st.Mean(),
			Variance:  st.Variance(),
			SQNRdB:    st.SQNRdB(),
			RefCount:  st.RefCount,
			Saturated: st.Saturated,
			Overflow:  st.Overflow,
		}
		if st.Count > 0 {
			pl.Min, pl.Max = st.Min, st.Max
		}
		out[i] = pl
	}
	return out
}

// recordProbes merges a fold's buffered per-job stats (indexed
// evaluation·nb + batch; nil for jobs that did not run here) into one
// record per sweep point and adds it to the set.
func (a *Analyzer) recordProbes(p *plan, stats [][]caps.ProbeLayerStats) {
	accs := make([]*probeAccum, len(p.nms))
	for j, st := range stats {
		if st == nil {
			continue
		}
		pi := p.evals[j/p.nb].pi
		if accs[pi] == nil {
			accs[pi] = newProbeAccum()
		}
		accs[pi].merge(st)
	}
	swp := ProbeSweep{Label: p.label, Backend: p.be.Name()}
	for pi, acc := range accs {
		if acc != nil {
			swp.Points = append(swp.Points, ProbePoint{NM: p.nms[pi], Layers: acc.emit()})
		}
	}
	if len(swp.Points) > 0 {
		a.Probes.add(swp)
	}
}
