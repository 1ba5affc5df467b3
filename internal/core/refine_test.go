package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/noise"
)

func TestRefineMeetsTargetByUpgrading(t *testing.T) {
	a := sharedAnalyzer(t)
	clean := a.CleanAccuracy()
	profiles := ProfileLibraryDepths(approx.Uniform{}, []int{9}, 2000, 3)

	// Deliberately bad starting design: the crudest component everywhere.
	sorted := append([]ComponentProfile(nil), profiles...)
	worst := sorted[0]
	for _, p := range sorted {
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

	res, err := a.Refine(context.Background(), choices, profiles, clean, 0.05, 100)
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
	exact := profiles[0]
	var choices []Choice
	for _, g := range noise.Groups() {
		for _, s := range a.ExtractGroups()[g] {
			choices = append(choices, Choice{Site: s, Component: exact.Component, ComponentNM: 0})
		}
	}
	res, err := a.Refine(context.Background(), choices, profiles, clean, 0.02, 10)
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
	exact := profiles[0]
	var choices []Choice
	for _, g := range noise.Groups() {
		for _, s := range a.ExtractGroups()[g] {
			choices = append(choices, Choice{Site: s, Component: exact.Component, ComponentNM: 0})
		}
	}
	// Impossible target (above clean accuracy + 1): loop must terminate
	// without panicking and report Met=false.
	res, err := a.Refine(context.Background(), choices, profiles, 2.0, 0.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("impossible target reported as met")
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
