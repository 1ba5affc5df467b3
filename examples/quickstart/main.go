// Quickstart: train a small CapsNet on the synthetic digit dataset, then
// run the group-wise resilience analysis (ReD-CaNe Steps 1–3) and print
// which operation groups tolerate approximation noise.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

func main() {
	log.SetFlags(0)

	// 1. Synthesize a 10-class handwritten-digit analogue (offline,
	//    deterministic).
	ds := datasets.MNISTLike(800, 200, 42)
	fmt.Printf("dataset %s: %d train / %d test, %d classes\n",
		ds.Name, ds.TrainX.Shape[0], ds.TestX.Shape[0], ds.Classes())

	// 2. Build the original CapsNet (Conv → PrimaryCaps → DigitCaps with
	//    dynamic routing) and train it in place: the instrumented network
	//    the analysis runs is the one trained.
	spec := models.CapsNet([]int{ds.Channels, ds.H, ds.W}, ds.Classes())
	net, err := models.BuildInference(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	m := train.NewModel(net)
	sz := ds.Channels * ds.H * ds.W
	calib := tensor.NewFrom(ds.TrainX.Data[:32*sz], 32, ds.Channels, ds.H, ds.W)
	train.LSUVInit(m, calib, 0.5)
	train.Fit(m, ds, train.Config{
		Epochs: 3, BatchSize: 32, LR: 1.5e-3, Seed: 1, GradClip: 5, Log: os.Stdout,
	})
	acc, err := (&core.Analyzer{Net: net, Data: ds}).Evaluate(context.Background(), nil, nil, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: test accuracy %.2f%%\n\n", 100*acc)

	// 3. Group-wise resilience analysis (methodology Steps 1–3): sweep
	//    the noise magnitude per Table III operation group.
	a := &core.Analyzer{Net: net, Data: ds, Opts: core.Options{
		Trials: 2, MaxEval: 150, Seed: 5,
	}.WithDefaults()}
	clean, err := a.Evaluate(context.Background(), nil, nil, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean accuracy (eval subset): %.2f%%\n\n", 100*clean)
	fmt.Println("group-wise accuracy drop by noise magnitude:")
	fmt.Printf("%-14s", "NM")
	for _, nm := range a.Opts.NMSweep {
		fmt.Printf("%8.3g", nm)
	}
	fmt.Println()
	groups, err := a.AnalyzeGroups(context.Background(), clean)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range groups {
		fmt.Printf("%-14s", g.Group)
		for _, p := range g.Points {
			fmt.Printf("%+8.1f", 100*p.Drop)
		}
		if g.Resilient {
			fmt.Printf("  [RESILIENT]")
		}
		fmt.Println()
	}
	fmt.Println("\nThe dynamic-routing groups (softmax, logits update) should tolerate")
	fmt.Println("far larger NM than MAC outputs and activations — the paper's headline.")
}
