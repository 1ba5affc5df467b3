package approx

import (
	"fmt"
	"math/rand/v2"

	"redcane/internal/tensor"
)

// InputDist supplies operand pairs for error characterization. The paper
// distinguishes the "modeled" distribution (uniform random operands) from
// the "real" one (operands drawn from a CapsNet's actual quantized
// activations and weights); Table IV compares NM/NA under both.
type InputDist interface {
	// Sample returns one (activation, weight) operand pair. It may depend
	// on rng alone: CharacterizeAll scores every multiplier on one drawn
	// stream, which equals characterizing each on its own only because a
	// reseeded rng then redraws the same pairs.
	Sample(rng *rand.Rand) (a, b uint8)
	// Name identifies the distribution in reports.
	Name() string
}

// Uniform is the modeled input distribution: independent uniform operands.
type Uniform struct{}

// Sample draws two independent uniform bytes.
func (Uniform) Sample(rng *rand.Rand) (a, b uint8) {
	v := rng.Uint64()
	return uint8(v), uint8(v >> 8)
}

// Name returns "uniform".
func (Uniform) Name() string { return "uniform" }

// Empirical draws operands from two observed pools (e.g. quantized conv
// input activations and quantized weights sampled from a trained CapsNet).
type Empirical struct {
	// Label names the source, e.g. "deepcaps-cifar-conv-inputs".
	Label string
	// A is the activation pool, B the weight pool; both must be non-empty.
	A, B []uint8
}

// Sample draws one operand from each pool.
func (e Empirical) Sample(rng *rand.Rand) (a, b uint8) {
	return e.A[rng.IntN(len(e.A))], e.B[rng.IntN(len(e.B))]
}

// Name returns the label.
func (e Empirical) Name() string { return e.Label }

// ErrorProfile is the outcome of characterizing one multiplier under one
// input distribution and one MAC-chain length (paper Fig. 6 / Table IV).
type ErrorProfile struct {
	Component string
	Dist      string
	// ChainLen is the number of accumulated MACs (1, 9 or 81 in the
	// paper, matching 1×1, 3×3 and 9×9 convolution kernels).
	ChainLen int
	// Samples is the number of chains evaluated.
	Samples int
	// Fit holds the Gaussian interpolation of the arithmetic error ΔP.
	Fit tensor.GaussianFit
	// Hist is a 64-bin histogram of ΔP for rendering Fig. 6.
	Hist *tensor.Histogram
	// OutputRange is R(X): the dynamic range of the accurate chain
	// outputs over the sample set, the normalizer in NM/NA.
	OutputRange float64
	// NM = std(ΔP)/R(X), NA = mean(ΔP)/R(X) — paper Sec. III-B.
	NM, NA float64
}

// Characterize measures the arithmetic-error distribution of m under dist
// with chains of chainLen accumulated MACs, using n sample chains.
// It reproduces Eq. 2 and the NM/NA definitions of the paper.
func Characterize(m Multiplier, dist InputDist, chainLen, n int, seed uint64) ErrorProfile {
	return CharacterizeAll([]Multiplier{m}, dist, chainLen, n, seed)[0]
}

// CharacterizeAll characterizes every multiplier in ms on one operand
// stream: it draws the n·chainLen pairs once, then sums each model's
// compiled LUT entries (a *LUT is used as is) over every chain. Result j
// equals Characterize(ms[j], dist, chainLen, n, seed) bit for bit: every
// product is an integer below 2^16, so every partial chain sum is an
// integer below 2^53, which float64 accumulation holds exactly, and the
// integer sums convert to the same float64 values.
func CharacterizeAll(ms []Multiplier, dist InputDist, chainLen, n int, seed uint64) []ErrorProfile {
	if chainLen < 1 || n < 2 {
		panic(fmt.Sprintf("approx: invalid characterization chainLen=%d n=%d", chainLen, n))
	}
	rng := tensor.NewRNG(seed)
	codes := make([]uint16, n*chainLen) // chain i holds codes[i*chainLen:][:chainLen], a<<8|b
	exact := make([]float64, n)
	for i := range exact {
		var acc uint64
		for k := range chainLen {
			a, b := dist.Sample(rng)
			codes[i*chainLen+k] = uint16(a)<<8 | uint16(b)
			acc += uint64(a) * uint64(b)
		}
		exact[i] = float64(acc)
	}
	r := tensor.NewFrom(exact, n).Range()
	if r <= 0 {
		r = 1
	}

	out := make([]ErrorProfile, len(ms))
	errs := make([]float64, n) // reused: nothing below retains it
	for j, m := range ms {
		lut, ok := m.(*LUT)
		if !ok {
			lut = CompileLUT(m)
		}
		for i := range errs {
			var acc uint64
			for _, c := range codes[i*chainLen : (i+1)*chainLen] {
				acc += uint64(lut.table[uint8(c>>8)][uint8(c)])
			}
			errs[i] = float64(acc) - exact[i]
		}

		lo, hi := tensor.NewFrom(errs, n).MinMax()
		if hi <= lo {
			hi = lo + 1
		}
		hist := tensor.NewHistogram(lo, hi, 64)
		hist.ObserveAll(errs)

		fit := tensor.FitGaussian(errs)
		out[j] = ErrorProfile{
			Component:   name(m),
			Dist:        dist.Name(),
			ChainLen:    chainLen,
			Samples:     n,
			Fit:         fit,
			Hist:        hist,
			OutputRange: r,
			NM:          fit.Std / r,
			NA:          fit.Mean / r,
		}
	}
	return out
}

// name renders a stable identifier for a multiplier model.
func name(m Multiplier) string {
	switch v := m.(type) {
	case Exact:
		return "exact"
	case ProductTrunc:
		return fmt.Sprintf("ptrunc%d", v.Bits)
	case OperandTrunc:
		return fmt.Sprintf("otrunc%d.%d", v.ABits, v.BBits)
	case BrokenCarry:
		return fmt.Sprintf("broken%d", v.Depth)
	case DRUM:
		return fmt.Sprintf("drum%d", v.K)
	case Mitchell:
		return "mitchell"
	case *LUT:
		return "lut"
	default:
		return fmt.Sprintf("%T", m)
	}
}

// EmpiricalDist is a convenience constructor for an Empirical input
// distribution over captured operand pools.
func EmpiricalDist(a, b []uint8) Empirical {
	return Empirical{Label: "empirical", A: a, B: b}
}
