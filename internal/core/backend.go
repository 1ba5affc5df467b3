package core

import (
	"context"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// This file closes the methodology's model-vs-reality loop: a Step 6
// design (a []Choice) compiles into an execution backend that runs the
// chosen multipliers bit-accurately, and EvalBackend measures it through
// Evaluate, the same engine fold the noise sweeps use — workers, prefix
// caching over the exact prefix before the first approximate site,
// checkpoint/resume, and telemetry spans.

// MACAssignments extracts a design's per-layer multiplier assignments:
// the MAC-output choices, which are the only Table III group a
// multiplier substitution physically realizes (softmax, activations and
// logits-update approximations live in other datapath units). Exact
// assignments are kept — the backend drops them itself — so the map's
// keys cover every MAC layer of the design.
func MACAssignments(choices []Choice) map[string]approx.Multiplier {
	out := map[string]approx.Multiplier{}
	for _, c := range choices {
		if c.Site.Group != noise.MACOutputs {
			continue
		}
		out[c.Site.Layer] = c.Component.Model
	}
	return out
}

// DesignBackend compiles a selected design into a bit-accurate execution
// backend: b-bit quantized MACs with each layer's chosen approximate
// multiplier (exact choices and non-MAC sites run the exact quantized
// path).
func DesignBackend(choices []Choice, bits uint) (caps.Backend, error) {
	return axe.NewQuantApprox(bits, MACAssignments(choices))
}

// EvalBackend measures test accuracy under the given execution backend:
// a noiseless Evaluate under a backend.eval span. The exact prefix before
// the backend's first approximate layer is computed once per window and
// replayed, and with a non-nil a.Checkpoint the per-window correct-counts
// persist under the given section key so an interrupted evaluation
// resumes where it left off. Distinct backends must use distinct section
// keys. With probes on, a named evaluation's record compares against the
// backend's exact baseline (caps.Baseliner).
func (a *Analyzer) EvalBackend(ctx context.Context, be caps.Backend, section string) (float64, error) {
	p, err := a.evalPlan(section, be, nil)
	if err != nil {
		return 0, err
	}
	sp := a.Obs.StartSpan("backend.eval",
		obs.F("backend", p.be.Name()), obs.F("frontier", p.frontier), obs.F("section", section))
	defer sp.End()
	return a.foldAccuracy(ctx, p)
}
