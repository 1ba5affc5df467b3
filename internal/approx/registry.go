package approx

import (
	"fmt"
	"sort"
)

// Component bundles a behavioral multiplier model with the physical
// metadata of the corresponding EvoApprox8B component from Table IV of the
// paper (power and area synthesized at 45 nm, 8-bit operands).
type Component struct {
	// Name is the EvoApprox8B identifier, e.g. "mul8u_NGR".
	Name string
	// PowerUW is the synthesized power in µW (paper Table IV).
	PowerUW float64
	// AreaUM2 is the synthesized area in µm² (paper Table IV).
	AreaUM2 float64
	// Model is the behavioral stand-in for the netlist.
	Model Multiplier
	// PaperNM is the noise magnitude the paper measured for this
	// component on the modeled (uniform) input distribution; kept for
	// side-by-side reporting, never used in computation.
	PaperNM float64
	// PaperNA is the paper's modeled noise average, for reporting.
	PaperNA float64
}

// PowerReduction returns the power saving versus the accurate multiplier,
// as a fraction in [0, 1).
func (c Component) PowerReduction() float64 {
	return 1 - c.PowerUW/accuratePowerUW
}

// AreaReduction returns the area saving versus the accurate multiplier.
func (c Component) AreaReduction() float64 {
	return 1 - c.AreaUM2/accurateAreaUM2
}

const (
	accuratePowerUW = 391.0
	accurateAreaUM2 = 710.0
)

// components is the library of Table IV, ordered by decreasing power
// (i.e. increasing approximation aggressiveness).
var components = []Component{
	{Name: "mul8u_1JFF", PowerUW: 391, AreaUM2: 710, Model: Exact{}, PaperNM: 0.0000, PaperNA: 0.0000},
	{Name: "mul8u_14VP", PowerUW: 364, AreaUM2: 654, Model: ProductTrunc{Bits: 4, Compensate: true}, PaperNM: 0.0001, PaperNA: 0.0000},
	{Name: "mul8u_GS2", PowerUW: 356, AreaUM2: 633, Model: OperandTrunc{ABits: 1, BBits: 1, Compensate: true}, PaperNM: 0.0017, PaperNA: 0.0004},
	{Name: "mul8u_CK5", PowerUW: 345, AreaUM2: 604, Model: ProductTrunc{Bits: 5, Compensate: true}, PaperNM: 0.0002, PaperNA: 0.0000},
	{Name: "mul8u_7C1", PowerUW: 329, AreaUM2: 607, Model: OperandTrunc{ABits: 2, Compensate: true}, PaperNM: 0.0033, PaperNA: 0.0011},
	{Name: "mul8u_96D", PowerUW: 309, AreaUM2: 605, Model: OperandTrunc{ABits: 3, BBits: 2, Compensate: true}, PaperNM: 0.0077, PaperNA: 0.0035},
	{Name: "mul8u_2HH", PowerUW: 302, AreaUM2: 542, Model: ProductTrunc{Bits: 7, Compensate: true}, PaperNM: 0.0007, PaperNA: -0.0001},
	{Name: "mul8u_NGR", PowerUW: 276, AreaUM2: 512, Model: BrokenCarry{Depth: 6, Compensate: true}, PaperNM: 0.0008, PaperNA: 0.0001},
	{Name: "mul8u_19DB", PowerUW: 206, AreaUM2: 396, Model: BrokenCarry{Depth: 7, Compensate: true}, PaperNM: 0.0019, PaperNA: 0.0010},
	{Name: "mul8u_DM1", PowerUW: 195, AreaUM2: 402, Model: DRUM{K: 6}, PaperNM: 0.0025, PaperNA: 0.0003},
	{Name: "mul8u_12N4", PowerUW: 142, AreaUM2: 390, Model: OperandTrunc{ABits: 3, BBits: 3, Compensate: true}, PaperNM: 0.0054, PaperNA: 0.0018},
	{Name: "mul8u_1AGV", PowerUW: 95, AreaUM2: 228, Model: BrokenCarry{Depth: 10, Compensate: true}, PaperNM: 0.0080, PaperNA: 0.0027},
	{Name: "mul8u_YX7", PowerUW: 61, AreaUM2: 221, Model: OperandTrunc{ABits: 6, BBits: 5, Compensate: true}, PaperNM: 0.0741, PaperNA: 0.0484},
	{Name: "mul8u_JV3", PowerUW: 34, AreaUM2: 111, Model: DRUM{K: 3}, PaperNM: 0.0267, PaperNA: 0.0021},
	{Name: "mul8u_QKX", PowerUW: 29, AreaUM2: 112, Model: OperandTrunc{ABits: 6, BBits: 6, Compensate: true}, PaperNM: 0.0736, PaperNA: 0.0509},
}

// Library returns the full component library (a copy), ordered from least
// to most aggressive approximation (decreasing power).
func Library() []Component {
	out := make([]Component, len(components))
	copy(out, components)
	return out
}

// Models returns the behavioral model of each component, in order: the
// argument CharacterizeAll takes.
func Models(cs []Component) []Multiplier {
	ms := make([]Multiplier, len(cs))
	for i, c := range cs {
		ms[i] = c.Model
	}
	return ms
}

// ByName looks up a component by its EvoApprox8B identifier.
func ByName(name string) (Component, error) {
	for _, c := range components {
		if c.Name == name {
			return c, nil
		}
	}
	return Component{}, fmt.Errorf("approx: unknown component %q", name)
}

// Accurate returns the exact reference multiplier component (mul8u_1JFF).
func Accurate() Component { return components[0] }

// SortedByPower returns the library sorted by ascending power, i.e. most
// aggressive first — the order in which the ReD-CaNe selection step scans
// for the cheapest component meeting an NM budget.
func SortedByPower() []Component {
	out := Library()
	sort.Slice(out, func(i, j int) bool { return out[i].PowerUW < out[j].PowerUW })
	return out
}
