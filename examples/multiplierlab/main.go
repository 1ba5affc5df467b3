// Multiplierlab shows how to characterize a *custom* approximate
// multiplier with the same machinery the paper applies to the
// EvoApprox8B library: implement the one-method Multiplier interface,
// measure its error distribution over 1/9/81-MAC chains (Fig. 6), its
// noise magnitude/average (Table IV), and see where it would land in the
// library's power/accuracy trade-off.
//
//	go run ./examples/multiplierlab
package main

import (
	"fmt"

	"redcane/internal/approx"
)

// hybridMul is a custom design: exact for small operands (cheap short
// multiplier) and DRUM-style dynamic truncation for large ones.
type hybridMul struct{ drum approx.DRUM }

func (h hybridMul) Mul(a, b uint8) uint16 {
	if a < 16 && b < 16 {
		return uint16(a) * uint16(b)
	}
	return h.drum.Mul(a, b)
}

func main() {
	custom := hybridMul{drum: approx.DRUM{K: 4}}

	fmt.Println("custom hybrid multiplier — error profile (uniform operands):")
	fmt.Printf("%6s %12s %12s %10s %8s\n", "MACs", "mean", "std", "NM", "KS")
	for _, chain := range []int{1, 9, 81} {
		p := approx.Characterize(custom, approx.Uniform{}, chain, 50000, 11)
		fmt.Printf("%6d %12.2f %12.2f %10.4f %8.3f\n", chain, p.Fit.Mean, p.Fit.Std, p.NM, p.Fit.KS)
	}

	p9 := approx.Characterize(custom, approx.Uniform{}, 9, 50000, 11)
	fmt.Println("\n9-MAC accumulated error histogram:")
	fmt.Print(p9.Hist.Render(40))

	fmt.Printf("\nMRED: %.4f\n", approx.Measure(custom).MRED)

	// Where would it slot into the library (by noise magnitude)? One
	// call scores the library and the custom design on one operand stream.
	lib := approx.Library()
	p1 := approx.CharacterizeAll(append(approx.Models(lib), custom), approx.Uniform{}, 1, 50000, 11)
	fmt.Println("\nlibrary context (1-MAC NM, ascending):")
	for i, c := range lib {
		pc := p1[i]
		marker := ""
		if pc.NM > 0 && p9.NM > 0 && pc.NM >= p1[len(lib)].NM {
			marker = "   <- custom design fits below here"
		}
		fmt.Printf("  %-12s power %4.0f µW   NM %.4f%s\n", c.Name, c.PowerUW, pc.NM, marker)
		if marker != "" {
			break
		}
	}

	// Compile to a LUT for O(1) integration into the execution engine.
	lut := approx.CompileLUT(custom)
	fmt.Printf("\nLUT compiled; 200×31 = %d (exact %d)\n", lut.Mul(200, 31), 200*31)
}
