package axe

import (
	"fmt"
	"sort"

	"redcane/internal/approx"
	"redcane/internal/caps"
	"redcane/internal/fixed"
	"redcane/internal/tensor"
)

// effBits resolves the default wordlength.
func effBits(bits uint) uint {
	if bits == 0 {
		return fixed.DefaultBits
	}
	return bits
}

// QuantExact is the bit-exact quantized backend: every MAC kernel runs on
// b-bit affine-quantized operands with exact multiplication and exact
// accumulation. It is the hardware baseline an approximate design is
// measured against — QuantApprox with no assignments matches it
// bit-for-bit, and at high wordlengths it converges to Float.
type QuantExact struct {
	// Bits is the operand wordlength, 1–16 (default 8 when zero).
	Bits uint
}

// Name implements caps.Backend.
func (b QuantExact) Name() string { return fmt.Sprintf("quant-exact-%d", effBits(b.Bits)) }

// ExactBaseline implements caps.Backend: the exact path is its own
// baseline, so probing it yields ranges, moments and overflow only, and
// every b-bit quantized backend shares its clean prefixes.
func (b QuantExact) ExactBaseline() caps.Backend { return b }

// ApproxLayer implements caps.Backend: the exact path is the baseline.
func (QuantExact) ApproxLayer(string) bool { return false }

// Nonlinearity implements caps.Backend: the exact pair.
func (QuantExact) Nonlinearity() caps.Nonlinearity { return caps.Nonlinearity{} }

// Conv2D implements caps.Backend.
func (b QuantExact) Conv2D(_ string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	return quantConv2D(nil, x, w, bias, stride, pad, effBits(b.Bits), s, ovf)
}

// CapsVotes implements caps.Backend.
func (b QuantExact) CapsVotes(_ string, u, w *tensor.Tensor, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	return quantCapsVotes(nil, u, w, effBits(b.Bits), s, ovf)
}

// QuantApprox is the approximate-execution backend: b-bit quantized MACs
// where the layers named in the assignment map multiply through a
// behavioral approximate-multiplier LUT, and every other layer runs the
// exact quantized path. An empty assignment map makes it bit-identical
// to QuantExact at the same wordlength. It embeds that QuantExact, its
// exact baseline, and declares only what the LUTs change.
type QuantApprox struct {
	QuantExact
	luts map[string]*approx.LUT
}

// NewQuantApprox compiles an approximate backend from per-layer
// multiplier assignments (a design's MAC-output choices). Each distinct
// multiplier is enumerated into a LUT once, shared across its layers.
// Assignments of approx.Exact (or nil) are dropped — those layers run
// the exact quantized path, so an all-exact design is still bit-identical
// to QuantExact. LUTs are 8-bit, so a non-exact assignment with bits > 8
// is an error.
func NewQuantApprox(bits uint, mults map[string]approx.Multiplier) (*QuantApprox, error) {
	be := &QuantApprox{QuantExact: QuantExact{Bits: effBits(bits)}, luts: map[string]*approx.LUT{}}
	compiled := map[approx.Multiplier]*approx.LUT{}
	for layer, m := range mults {
		if m == nil {
			continue
		}
		if _, exact := m.(approx.Exact); exact {
			continue
		}
		if be.Bits > 8 {
			return nil, fmt.Errorf("axe: multiplier LUTs are 8-bit, cannot run layer %q approximately at %d bits", layer, be.Bits)
		}
		lut, ok := compiled[m]
		if !ok {
			lut = approx.CompileLUT(m)
			compiled[m] = lut
		}
		be.luts[layer] = lut
	}
	return be, nil
}

// Name implements caps.Backend, listing the approximated layers so two
// designs at the same wordlength stay distinguishable in telemetry.
func (b *QuantApprox) Name() string {
	layers := make([]string, 0, len(b.luts))
	for l := range b.luts {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return fmt.Sprintf("quant-approx-%d%v", b.Bits, layers)
}

// ApproxLayer implements caps.Backend.
func (b *QuantApprox) ApproxLayer(layer string) bool {
	_, ok := b.luts[layer]
	return ok
}

// Conv2D implements caps.Backend; a layer without a LUT runs exact.
func (b *QuantApprox) Conv2D(layer string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	return quantConv2D(b.luts[layer], x, w, bias, stride, pad, b.Bits, s, ovf)
}

// CapsVotes implements caps.Backend; a layer without a LUT runs exact.
func (b *QuantApprox) CapsVotes(layer string, u, w *tensor.Tensor, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	return quantCapsVotes(b.luts[layer], u, w, b.Bits, s, ovf)
}

var (
	_ caps.Backend = QuantExact{}
	_ caps.Backend = (*QuantApprox)(nil)
)
