// Approxdesign runs the complete 6-step ReD-CaNe methodology end to end:
// train a CapsNet, characterize the approximate-multiplier library on the
// network's own operand distribution, analyze group- and layer-wise
// resilience, select a component per operation, and validate the
// resulting approximate CapsNet design.
//
//	go run ./examples/approxdesign
package main

import (
	"fmt"
	"log"

	"redcane/internal/experiments"
)

func main() {
	log.SetFlags(0)

	r := experiments.NewRunner(experiments.Config{
		Dir:   ".redcane-cache",
		Quick: true, // fast demo; drop for the paper-scale run
		Seed:  42,
	})

	b := experiments.DefaultBenchmark
	fmt.Printf("running the 6-step ReD-CaNe methodology on %s...\n\n", b.Key())

	design, err := r.Design(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(design.Render())

	fmt.Println("\nThe output is the paper's deliverable: an approximate CapsNet —")
	fmt.Println("a per-operation assignment of approximate multipliers that keeps")
	fmt.Println("classification accuracy while cutting multiplier energy.")
}
