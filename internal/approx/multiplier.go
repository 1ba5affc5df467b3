// Package approx provides behavioral models of approximate arithmetic
// components (8-bit unsigned multipliers and adders), their power/area
// metadata, and the error-characterization machinery of Sec. III of the
// ReD-CaNe paper.
//
// The paper draws its components from the EvoApprox8B library of evolved
// netlists. Those netlists are not redistributable here, so this package
// implements the classic approximate-multiplier structures from the
// literature (operand/product truncation, broken carry arrays, DRUM-style
// dynamic truncation, Mitchell's logarithmic multiplication) and registers
// one instance per paper component name, tuned so the measured noise
// magnitude (NM) lands in the band the paper reports for that component.
// The noise-injection methodology only ever consumes a component's error
// distribution, so this substitution preserves the analysis (DESIGN.md §2).
package approx

import "math/bits"

// Multiplier is a behavioral 8×8→16-bit unsigned multiplier.
// Implementations must be pure functions of their inputs.
type Multiplier interface {
	// Mul returns the (possibly approximate) product of a and b.
	Mul(a, b uint8) uint16
}

// Exact is the accurate 8-bit multiplier (paper component 1JFF).
type Exact struct{}

// Mul returns a*b exactly.
func (Exact) Mul(a, b uint8) uint16 { return uint16(a) * uint16(b) }

// ProductTrunc computes the exact product and zeroes its low Bits bits,
// modeling a multiplier whose low partial-product columns are left
// unimplemented. If Compensate is set, half of the dropped range is added
// back so the error is approximately zero-mean (a standard fixed
// compensation circuit).
type ProductTrunc struct {
	Bits       uint
	Compensate bool
}

// Mul returns the truncated (and optionally compensated) product.
func (m ProductTrunc) Mul(a, b uint8) uint16 {
	p := uint32(a) * uint32(b)
	if m.Bits == 0 {
		return uint16(p)
	}
	p &^= (1 << m.Bits) - 1
	if m.Compensate && p != 0 {
		// Half of the dropped range, gated on a nonzero surviving
		// product: a constant added to dead-zero outputs would bias
		// sparse (ReLU) operand streams far more than any real circuit.
		p += 1 << (m.Bits - 1)
		if p > 0xFFFF {
			p = 0xFFFF
		}
	}
	return uint16(p)
}

// OperandTrunc zeroes the low ABits of operand a and BBits of operand b
// before multiplying, modeling a reduced-width multiplier array. With
// Compensate set, the expected dropped contribution (for uniform operands)
// is added back to center the error.
type OperandTrunc struct {
	ABits, BBits uint
	Compensate   bool
}

// Mul returns the product of the truncated operands.
func (m OperandTrunc) Mul(a, b uint8) uint16 {
	ta := uint32(a) &^ ((1 << m.ABits) - 1)
	tb := uint32(b) &^ ((1 << m.BBits) - 1)
	p := ta * tb
	if m.Compensate && p != 0 {
		// Expected dropped contribution for uniform operands,
		// E[aerr]·E[b] + E[berr]·E[a] − E[aerr]·E[berr], gated on a
		// nonzero surviving product (see ProductTrunc.Mul).
		ea := (float64((uint32(1) << m.ABits)) - 1) / 2
		eb := (float64((uint32(1) << m.BBits)) - 1) / 2
		comp := uint32(ea*127.5 + eb*127.5 - ea*eb)
		p += comp
		if p > 0xFFFF {
			p = 0xFFFF
		}
	}
	return uint16(p)
}

// BrokenCarry drops every partial-product cell whose significance i+j is
// below Depth, the classic broken-array multiplier. With Compensate set, a
// constant equal to the expected dropped mass (uniform operands) is added.
type BrokenCarry struct {
	Depth      uint
	Compensate bool
}

// Mul returns the exact product minus the dropped cells: bit i of a
// loses the cells j < Depth−i of b.
func (m BrokenCarry) Mul(a, b uint8) uint16 {
	p := uint32(a) * uint32(b)
	for i := uint(0); i < min(m.Depth, 8); i++ {
		if a&(1<<i) != 0 {
			p -= (uint32(b) & (1<<min(m.Depth-i, 8) - 1)) << i
		}
	}
	if m.Compensate && p != 0 {
		// Gated on a nonzero surviving product (see ProductTrunc.Mul).
		p += brokenCarryComp[min(m.Depth, 15)]
		if p > 0xFFFF {
			p = 0xFFFF
		}
	}
	return uint16(p)
}

// brokenCarryComp[d] is BrokenCarry's compensation at Depth d: each
// dropped cell contributes 2^(i+j) with probability 1/4. Depth 15 drops
// every cell.
var brokenCarryComp = func() (comp [16]uint32) {
	for d := range comp {
		var sum float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i+j < d {
					sum += float64(uint32(1)<<(i+j)) / 4
				}
			}
		}
		comp[d] = uint32(sum)
	}
	return comp
}()

// DRUM approximates by keeping only the K most significant bits of each
// operand starting at its leading one (with round-to-nearest on the cut),
// multiplying the short operands, and shifting back. It is approximately
// unbiased with error relative to the product magnitude (Hashemi et al.,
// ICCAD 2015).
type DRUM struct {
	K uint
}

// Mul returns the dynamically truncated product.
func (m DRUM) Mul(a, b uint8) uint16 {
	ra, sa := drumReduce(uint32(a), m.K)
	rb, sb := drumReduce(uint32(b), m.K)
	p := (ra * rb) << (sa + sb)
	if p > 0xFFFF {
		p = 0xFFFF
	}
	return uint16(p)
}

// drumReduce keeps the k leading bits of v (from its MSB), rounding the
// remainder, and returns the reduced value and the shift it was scaled by.
func drumReduce(v uint32, k uint) (reduced uint32, shift uint) {
	if v == 0 {
		return 0, 0
	}
	msb := uint(31 - bits.LeadingZeros32(v))
	if msb < k {
		return v, 0
	}
	shift = msb - k + 1
	reduced = v >> shift
	// Round to nearest using the first dropped bit.
	if v&(1<<(shift-1)) != 0 {
		reduced++
	}
	return reduced, shift
}

// Mitchell is Mitchell's logarithmic multiplier: approximate log2 of each
// operand by its characteristic plus linear mantissa, add, and take the
// approximate antilog. Errors reach ≈ -11 % of the product, always
// underestimating, so this models the most aggressive (cheapest) components.
type Mitchell struct{}

// Mul returns the log-domain approximate product.
func (Mitchell) Mul(a, b uint8) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	la := mitchellLog(uint32(a))
	lb := mitchellLog(uint32(b))
	sum := la + lb
	p := mitchellExp(sum)
	if p > 0xFFFF {
		p = 0xFFFF
	}
	return uint16(p)
}

// mitchellLog returns an approximate log2(v) in 16.16 fixed point:
// characteristic plus the linear-interpolated mantissa.
func mitchellLog(v uint32) uint32 {
	msb := uint(31 - bits.LeadingZeros32(v))
	frac := (v - (1 << msb)) << (16 - msb) // mantissa scaled to 16 bits
	return uint32(msb)<<16 | frac
}

// mitchellExp inverts mitchellLog: 2^char · (1 + mantissa).
func mitchellExp(l uint32) uint32 {
	ch := l >> 16
	frac := l & 0xFFFF
	return (1<<ch + (frac << ch >> 16))
}

// ErrorOf returns the arithmetic error ΔP = P'(a,b) − P(a,b) of m against
// the exact product (paper Eq. 2).
func ErrorOf(m Multiplier, a, b uint8) float64 {
	return float64(m.Mul(a, b)) - float64(uint16(a)*uint16(b))
}
