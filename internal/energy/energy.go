// Package energy implements the energy model of Sec. III-A of the ReD-CaNe
// paper: operation counting over a CapsNet's computational path, the
// per-operation unit energies of Table I (8-bit fixed point, 45 nm,
// Synopsys DC — embedded as published constants), the energy breakdown of
// Fig. 4, and the approximate-component scenarios of Fig. 5
// (Acc / XM / XA / XAM).
package energy

// Counts tallies the basic arithmetic operations on a CapsNet's
// computational path. Values are operation counts (may be fractional after
// scaling, hence float64).
type Counts struct {
	Add  float64
	Mul  float64
	Div  float64
	Exp  float64
	Sqrt float64
}

// Plus returns the elementwise sum of two tallies.
func (c Counts) Plus(o Counts) Counts {
	return Counts{
		Add:  c.Add + o.Add,
		Mul:  c.Mul + o.Mul,
		Div:  c.Div + o.Div,
		Exp:  c.Exp + o.Exp,
		Sqrt: c.Sqrt + o.Sqrt,
	}
}

// Scale returns the tally multiplied by k (e.g. routing iterations).
func (c Counts) Scale(k float64) Counts {
	return Counts{Add: c.Add * k, Mul: c.Mul * k, Div: c.Div * k, Exp: c.Exp * k, Sqrt: c.Sqrt * k}
}

// Total returns the total number of operations.
func (c Counts) Total() float64 {
	return c.Add + c.Mul + c.Div + c.Exp + c.Sqrt
}

// UnitEnergy holds per-operation energies in picojoules.
type UnitEnergy struct {
	Add  float64
	Mul  float64
	Div  float64
	Exp  float64
	Sqrt float64
}

// TableI is the paper's Table I: unit energies of 8-bit fixed-point
// operators synthesized in 45 nm CMOS with Synopsys Design Compiler.
// These are published inputs to the analysis, embedded verbatim.
var TableI = UnitEnergy{
	Add:  0.0202,
	Mul:  0.5354,
	Div:  1.0717,
	Exp:  0.1578,
	Sqrt: 0.7805,
}

// Energy returns the total energy in picojoules of executing the counted
// operations at the given unit energies.
func Energy(c Counts, u UnitEnergy) float64 {
	return c.Add*u.Add + c.Mul*u.Mul + c.Div*u.Div + c.Exp*u.Exp + c.Sqrt*u.Sqrt
}

// Breakdown is the per-operation-class share of total energy (Fig. 4).
type Breakdown struct {
	MulShare   float64
	AddShare   float64
	OtherShare float64 // div + exp + sqrt
}

// ComputeBreakdown returns the Fig. 4 energy shares.
func ComputeBreakdown(c Counts, u UnitEnergy) Breakdown {
	total := Energy(c, u)
	if total == 0 {
		return Breakdown{}
	}
	return Breakdown{
		MulShare:   c.Mul * u.Mul / total,
		AddShare:   c.Add * u.Add / total,
		OtherShare: (c.Div*u.Div + c.Exp*u.Exp + c.Sqrt*u.Sqrt) / total,
	}
}

// Scenario scales the multiplier and adder energies to model deploying
// approximate components, reproducing Fig. 5:
//
//	Acc — accurate everything; XM — approximate multipliers only;
//	XA — approximate adders only; XAM — both.
type Scenario struct {
	Name string
	// MulScale and AddScale multiply the accurate unit energies; 1 means
	// accurate, e.g. 0.71 models the NGR multiplier (−29 % power).
	MulScale float64
	AddScale float64
}

// Scenarios builds the four Fig. 5 configurations from a multiplier power
// scale and an adder power scale.
func Scenarios(mulScale, addScale float64) []Scenario {
	return []Scenario{
		{Name: "Acc", MulScale: 1, AddScale: 1},
		{Name: "XM", MulScale: mulScale, AddScale: 1},
		{Name: "XA", MulScale: 1, AddScale: addScale},
		{Name: "XAM", MulScale: mulScale, AddScale: addScale},
	}
}

// ScenarioResult is one bar of Fig. 5.
type ScenarioResult struct {
	Scenario Scenario
	EnergyPJ float64
	// SavingVsAcc is negative for savings, e.g. -0.283 for −28.3 %.
	SavingVsAcc float64
}

// EvaluateScenarios computes the Fig. 5 bars for the given op counts.
func EvaluateScenarios(c Counts, u UnitEnergy, scenarios []Scenario) []ScenarioResult {
	acc := Energy(c, u)
	out := make([]ScenarioResult, 0, len(scenarios))
	for _, s := range scenarios {
		su := u
		su.Mul *= s.MulScale
		su.Add *= s.AddScale
		e := Energy(c, su)
		saving := 0.0
		if acc > 0 {
			saving = e/acc - 1
		}
		out = append(out, ScenarioResult{Scenario: s, EnergyPJ: e, SavingVsAcc: saving})
	}
	return out
}
