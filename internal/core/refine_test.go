package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/noise"
)

// validatedAccuracy runs the methodology's validation pass on choices —
// the accuracy Refine starts from.
func validatedAccuracy(t *testing.T, a *Analyzer, choices []Choice) float64 {
	t.Helper()
	acc, err := a.Evaluate(context.Background(), nil, NewPerSiteInjector(choices, a.Opts.Seed+777), "")
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// exactChoices assigns the exact component to every site.
func exactChoices(a *Analyzer, exact ComponentProfile) []Choice {
	var choices []Choice
	for _, g := range noise.Groups() {
		for _, s := range a.ExtractGroups()[g] {
			choices = append(choices, Choice{Site: s, Component: exact.Component, ComponentNM: 0})
		}
	}
	return choices
}

// worstChoices is a deliberately bad design: the crudest component of
// the library at every site.
func worstChoices(a *Analyzer, profiles []ComponentProfile) []Choice {
	worst := profiles[0]
	for _, p := range profiles {
		if p.NM > worst.NM {
			worst = p
		}
	}
	var choices []Choice
	for _, g := range noise.Groups() {
		for _, s := range a.ExtractGroups()[g] {
			choices = append(choices, Choice{
				Site: s, Component: worst.Component, ComponentNM: worst.NM,
			})
		}
	}
	return choices
}

func TestRefineMeetsTargetByUpgrading(t *testing.T) {
	a := sharedAnalyzer(t)
	clean := a.CleanAccuracy()
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	choices := worstChoices(a, profiles)

	res, err := a.Refine(context.Background(), choices, profiles, clean, validatedAccuracy(t, a, choices), 0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("refinement did not reach target: final acc %.3f vs clean %.3f (%d steps)",
			res.Accuracy, clean, len(res.Steps))
	}
	if len(res.Steps) == 0 {
		t.Fatal("expected at least one upgrade from the all-worst design")
	}
	// Upgrades must move to lower-NM components.
	for _, s := range res.Steps {
		if s.From == s.To {
			t.Fatalf("no-op upgrade: %+v", s)
		}
	}
	if out := FormatRefine(res); !strings.Contains(out, "target met: true") {
		t.Fatalf("format broken:\n%s", out)
	}
}

func TestRefineNoopWhenAlreadyGood(t *testing.T) {
	a := sharedAnalyzer(t)
	clean := a.CleanAccuracy()
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	// All-exact design: already meets any target.
	choices := exactChoices(a, profiles[0])
	res, err := a.Refine(context.Background(), choices, profiles, clean, validatedAccuracy(t, a, choices), 0.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || len(res.Steps) != 0 {
		t.Fatalf("all-exact design should pass immediately: %+v", res)
	}
}

func TestRefineGivesUpAtExact(t *testing.T) {
	a := sharedAnalyzer(t)
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	choices := exactChoices(a, profiles[0])
	// Impossible target (above clean accuracy + 1): loop must terminate
	// without panicking and report Met=false.
	res, err := a.Refine(context.Background(), choices, profiles, 2.0, validatedAccuracy(t, a, choices), 0.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("impossible target reported as met")
	}
}

func TestRefineStartsFromValidatedAccuracy(t *testing.T) {
	// Refine judges the design by the validated accuracy it is handed, not
	// by a fresh draw of its own: an all-exact design validated below the
	// target has nothing to upgrade, so it ends unmet at that accuracy (a
	// fresh noise-free evaluation would report the clean accuracy, met).
	a := sharedAnalyzer(t)
	clean := a.CleanAccuracy()
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	validated := clean - 0.1
	res, err := a.Refine(context.Background(), exactChoices(a, profiles[0]), profiles, clean, validated, 0.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met || res.Accuracy != validated || len(res.Steps) != 0 {
		t.Fatalf("all-exact design validated at %.3f (target %.3f): %+v", validated, clean-0.02, res)
	}
}

func TestRefineValidatesUnderTheMethodologysDraw(t *testing.T) {
	// Designs compare under one noise draw: an upgrade is validated
	// exactly as the methodology validates a design, so its accuracy
	// equals a fresh validation of the upgraded choices.
	a := sharedAnalyzer(t)
	clean := a.CleanAccuracy()
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	choices := worstChoices(a, profiles)
	res, err := a.Refine(context.Background(), choices, profiles, clean, validatedAccuracy(t, a, choices), 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 1 {
		t.Fatalf("want one upgrade of the all-worst design, got %+v", res.Steps)
	}
	if want := validatedAccuracy(t, a, res.Choices); res.Steps[0].Accuracy != want {
		t.Fatalf("round 0 accuracy %.4f, fresh validation of its choices %.4f", res.Steps[0].Accuracy, want)
	}
}

func TestReportJSONExport(t *testing.T) {
	a := sharedAnalyzer(t)
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)
	r := a.Run(profiles)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if decoded["network"] != "capsnet" {
		t.Fatalf("network field = %v", decoded["network"])
	}
	choices, ok := decoded["choices"].([]any)
	if !ok || len(choices) == 0 {
		t.Fatalf("choices missing: %v", decoded["choices"])
	}
	first := choices[0].(map[string]any)
	for _, key := range []string{"layer", "group", "component", "power_uw"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("choice missing %q: %v", key, first)
		}
	}
}
