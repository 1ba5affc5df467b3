package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"redcane/internal/noise"
)

// RefineStep records one repair action of the refinement loop.
type RefineStep struct {
	Round    int
	Site     noise.Site
	From, To string
	// Accuracy is the validated accuracy after the upgrade.
	Accuracy float64
}

// RefineResult is the outcome of Refine.
type RefineResult struct {
	Choices []Choice
	Steps   []RefineStep
	// Final validated accuracy and whether the target was met.
	Accuracy float64
	Met      bool
}

// Refine extends the methodology's Step 6 with a validate-and-repair
// loop (a natural extension the paper leaves open): starting from the
// design's validated accuracy (the methodology's simultaneous per-site
// injection pass), while the accuracy drop exceeds maxDrop, the active
// site with the largest noise magnitude is upgraded to the next more
// accurate library component and the upgraded design is validated once.
// This closes the gap between per-site budgets (measured in isolation)
// and their composed effect. Each upgrade is validated exactly as
// RunMethodology validates a design, so when validated came from the
// same Analyzer options, every accuracy the loop compares is measured
// under one noise draw.
//
// Cancelling ctx stops the loop at the next validation batch boundary
// with ctx's error. Refinement rounds are not checkpointed: the loop
// restarts from the design's original choices on rerun (each round is a
// single validation pass, cheap next to the sweeps that produced the
// design).
func (a *Analyzer) Refine(ctx context.Context, choices []Choice, profiles []ComponentProfile, clean, validated, maxDrop float64, maxRounds int) (RefineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.Opts = a.Opts.WithDefaults()

	// Profiles ordered by ascending NM = the upgrade ladder. With a
	// multi-depth library the ladder is narrowed per upgrade to the
	// profiles characterized at the failing site's accumulation depth, so
	// a component's rank reflects its error at that site, not at some
	// other chain length.
	ladder := append([]ComponentProfile(nil), profiles...)
	sort.Slice(ladder, func(i, j int) bool { return ladder[i].NM < ladder[j].NM })
	depths := a.Net.MACDepths()
	ladderFor := func(site noise.Site, component string) ([]ComponentProfile, int) {
		sub := profilesForDepth(ladder, depths[site.Layer])
		for i, p := range sub {
			if p.Component.Name == component {
				return sub, i
			}
		}
		// Component missing from the depth-matched subset (e.g. choices
		// made against a different library): fall back to the full ladder.
		for i, p := range ladder {
			if p.Component.Name == component {
				return ladder, i
			}
		}
		return ladder, 0
	}

	cur := append([]Choice(nil), choices...)
	res := RefineResult{Accuracy: validated}
	for round := 0; round < maxRounds && res.Accuracy < clean-maxDrop; round++ {
		// Upgrade the noisiest non-exact choice.
		worst := -1
		for i, c := range cur {
			if c.ComponentNM == 0 {
				continue
			}
			if worst < 0 || c.ComponentNM > cur[worst].ComponentNM {
				worst = i
			}
		}
		if worst < 0 {
			break // everything already exact; nothing to repair
		}
		sub, r := ladderFor(cur[worst].Site, cur[worst].Component.Name)
		if r == 0 {
			break
		}
		next := sub[r-1]
		step := RefineStep{
			Round: round,
			Site:  cur[worst].Site,
			From:  cur[worst].Component.Name,
			To:    next.Component.Name,
		}
		cur[worst].Component = next.Component
		cur[worst].ComponentNM = next.NM
		acc, err := a.validate(ctx, cur)
		if err != nil {
			res.Choices = cur
			return res, err
		}
		step.Accuracy = acc
		res.Steps = append(res.Steps, step)
		res.Accuracy = acc
	}
	res.Met = res.Accuracy >= clean-maxDrop
	res.Choices = cur
	return res, nil
}

// FormatRefine renders the refinement trace.
func FormatRefine(r RefineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "refinement: %d upgrades, final accuracy %.2f%%, target met: %v\n",
		len(r.Steps), 100*r.Accuracy, r.Met)
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  round %d: %s/%s  %s -> %s  (acc %.2f%%)\n",
			s.Round, s.Site.Layer, s.Site.Group, s.From, s.To, 100*s.Accuracy)
	}
	return b.String()
}
