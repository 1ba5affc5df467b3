package experiments

import (
	"fmt"
	"sort"
	"strings"

	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// This file is the error-model-validation experiment: it closes the loop
// between the methodology's noise-model predictions and bit-accurate
// execution. The selected design (Step 6) is evaluated twice per scope —
// once with per-site Gaussian injection at the components' measured
// NM/NA (the prediction) and once on a quantized execution backend
// actually running the chosen multipliers (the measurement) — for the
// whole design, each Table III group, and each MAC layer. Related work
// shows error propagation through deep pipelines is exactly where simple
// noise models drift; this experiment quantifies that drift per scope.

// ValidateRow compares predicted and measured accuracy for one subset of
// the design's component choices.
type ValidateRow struct {
	// Scope is "design", "group" or "layer".
	Scope string
	// Name identifies the subset: the group or layer name ("all" for the
	// whole design).
	Name string
	// Component is the chosen component for single-choice subsets ("" when
	// the subset spans several).
	Component string
	// Sites counts the injection sites active in the prediction; MACSites
	// counts how many of them are MAC outputs (the sites a multiplier
	// substitution physically realizes).
	Sites, MACSites int
	// Predicted is the noise model's accuracy (per-site Gaussian injection
	// on the float engine); Measured is the backend's bit-accurate
	// accuracy.
	Predicted, Measured float64
	// Realizable marks rows whose measured backend runs exactly the
	// predicted subset: quant-approx measurements of MAC-only subsets.
	// Non-realizable rows still calibrate the model (the backend runs the
	// subset's MAC choices; non-MAC noise has no hardware counterpart).
	Realizable bool
}

// Gap is Measured − Predicted: positive when the noise model is
// pessimistic, negative when it underestimates the real damage.
func (v ValidateRow) Gap() float64 { return v.Measured - v.Predicted }

// ValidateResult is the full model-validation outcome for one benchmark.
type ValidateResult struct {
	Benchmark Benchmark
	// Backend names the measurement backend ("float", "quant-exact",
	// "quant-approx"); Bits its operand wordlength.
	Backend string
	Bits    uint
	// Clean is the float clean accuracy; QuantBaseline the quantized-exact
	// accuracy at Bits (the quantization-only drop every quantized
	// measurement includes).
	Clean         float64
	QuantBaseline float64
	Rows          []ValidateRow
}

// ValidBackends lists the -backend flag values accepted by Validate.
var ValidBackends = []string{"float", "quant-exact", "quant-approx"}

// backendFor resolves a backend name into a constructor over a design
// subset. The name is validated eagerly so a typo fails before any
// training or analysis runs.
func backendFor(name string, bits uint) (func(choices []core.Choice) (caps.Backend, error), error) {
	switch name {
	case "float":
		return func([]core.Choice) (caps.Backend, error) { return caps.Float{}, nil }, nil
	case "quant-exact":
		return func([]core.Choice) (caps.Backend, error) { return axe.QuantExact{Bits: bits}, nil }, nil
	case "quant-approx":
		return func(choices []core.Choice) (caps.Backend, error) {
			return core.DesignBackend(choices, bits)
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown backend %q (valid: %s)",
			name, strings.Join(ValidBackends, ", "))
	}
}

// choicesKey canonicalizes a choice subset for checkpoint identity.
func choicesKey(choices []core.Choice) string {
	parts := make([]string, 0, len(choices))
	for _, c := range choices {
		parts = append(parts, fmt.Sprintf("%s/%s=%s", c.Site.Layer, c.Site.Group, c.Component.Name))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Validate runs the model-validation experiment: the benchmark's selected
// design is re-evaluated bit-accurately on the named backend and compared
// with the noise model's prediction per design, group, and MAC layer.
// The measurement runs on the shared engine, so it is cancellable,
// worker-parallel, checkpoint-resumable and telemetered like every sweep.
func (r *Runner) Validate(b Benchmark, backendName string, bits uint) (*ValidateResult, error) {
	if bits == 0 {
		bits = 8
	}
	makeBackend, err := backendFor(backendName, bits)
	if err != nil {
		return nil, err
	}
	d, err := r.Design(b)
	if err != nil {
		return nil, err
	}
	// The evaluation split is capped tighter than the sweeps'. The cap is
	// kept for its outputs, not for speed (a bit-accurate evaluation
	// costs 1.2–1.4× a float one): lifting it would change which samples
	// are scored and so move every validate artifact.
	a, err := r.analyzer(b, core.Options{Seed: 25, MaxEval: min(r.evalCap(), 100)}, Overrides{})
	if err != nil {
		return nil, err
	}
	ctx := r.ctx()
	sp := r.obs().StartSpan("experiment.validate",
		obs.F("benchmark", b.Key()), obs.F("backend", backendName), obs.F("bits", bits))
	defer sp.End()

	clean, err := a.Evaluate(ctx, nil, nil, "")
	if err != nil {
		return nil, err
	}
	out := &ValidateResult{Benchmark: b, Backend: backendName, Bits: bits, Clean: clean}

	// Quantization-only baseline: exact arithmetic at the target
	// wordlength, no approximate components.
	section := func(scope, name string, choices []core.Choice) string {
		return "validate-" + checkpoint.Fingerprint(fmt.Sprintf(
			"validate|be=%s|bits=%d|scope=%s|name=%s|choices=%s",
			backendName, bits, scope, name, choicesKey(choices)))
	}
	baseline, err := a.EvalBackend(ctx, axe.QuantExact{Bits: bits}, section("baseline", "quant-exact", nil))
	if err != nil {
		return nil, err
	}
	out.QuantBaseline = baseline

	choices := d.Report.Choices
	row := func(scope, name string, subset []core.Choice) error {
		macSites := 0
		for _, c := range subset {
			if c.Site.Group == noise.MACOutputs {
				macSites++
			}
		}
		// The prediction runs under the analyzer's softmax/squash variants,
		// like the measurement, so an approximate-nonlinearity validation
		// compares like with like.
		predicted, err := a.Evaluate(ctx, nil, core.NewPerSiteInjector(subset, a.Opts.Seed+777), "")
		if err != nil {
			return err
		}
		be, err := makeBackend(subset)
		if err != nil {
			return err
		}
		measured, err := a.EvalBackend(ctx, be, section(scope, name, subset))
		if err != nil {
			return err
		}
		component := ""
		if len(subset) == 1 {
			component = subset[0].Component.Name
		}
		out.Rows = append(out.Rows, ValidateRow{
			Scope: scope, Name: name, Component: component,
			Sites: len(subset), MACSites: macSites,
			Predicted: predicted, Measured: measured,
			Realizable: backendName == "quant-approx" && macSites == len(subset) && macSites > 0,
		})
		return nil
	}

	// Whole design.
	if err := row("design", "all", choices); err != nil {
		return nil, err
	}
	// Per Table III group.
	for _, g := range noise.Groups() {
		var subset []core.Choice
		for _, c := range choices {
			if c.Site.Group == g {
				subset = append(subset, c)
			}
		}
		if len(subset) == 0 {
			continue
		}
		if err := row("group", g.String(), subset); err != nil {
			return nil, err
		}
	}
	// Per MAC layer (the scopes a multiplier substitution realizes
	// one-to-one, so prediction gaps localize to a layer).
	for _, c := range choices {
		if c.Site.Group != noise.MACOutputs {
			continue
		}
		if err := row("layer", c.Site.Layer, []core.Choice{c}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render formats the validation table.
func (v *ValidateResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Error-model validation — %s on %s, backend %s (%d-bit)\n",
		v.Benchmark.Arch, v.Benchmark.Dataset, v.Backend, v.Bits)
	fmt.Fprintf(&b, "clean %.2f%%, quantized-exact baseline %.2f%%\n",
		100*v.Clean, 100*v.QuantBaseline)
	fmt.Fprintf(&b, "%-8s %-14s %-14s %6s %10s %10s %8s %s\n",
		"scope", "name", "component", "sites", "pred [%]", "meas [%]", "gap", "")
	for _, row := range v.Rows {
		mark := ""
		if row.Realizable {
			mark = "(realizable)"
		}
		comp := row.Component
		if comp == "" {
			comp = "-"
		}
		fmt.Fprintf(&b, "%-8s %-14s %-14s %6d %10.2f %10.2f %+8.2f %s\n",
			row.Scope, row.Name, comp, row.Sites,
			100*row.Predicted, 100*row.Measured, 100*row.Gap(), mark)
	}
	return b.String()
}
