// Reconstruction trains a CapsNet with Sabour et al.'s reconstruction
// regularizer (the training-time decoder the ReD-CaNe paper notes it
// excludes from the resilience analysis), then writes side-by-side PNG
// images of test digits and their reconstructions from the class capsule
// — a visual check that the capsule vectors encode instantiation
// parameters, not just class identity.
//
//	go run ./examples/reconstruction
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

	ds := datasets.MNISTLike(800, 100, 42)
	spec := models.CapsNet([]int{1, 20, 20}, 10)
	net, err := models.BuildInference(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	m := train.NewModel(net)
	sz := ds.Channels * ds.H * ds.W
	calib := tensor.NewFrom(ds.TrainX.Data[:32*sz], 32, 1, 20, 20)
	train.LSUVInit(m, calib, 0.5)

	dec := train.NewDecoder(10, 16, 64, 64, sz, 9)
	train.Fit(m, ds, train.Config{
		Epochs: 4, BatchSize: 32, LR: 1.5e-3, Seed: 1, GradClip: 5,
		Decoder: dec, Log: os.Stdout,
	})
	acc, err := (&core.Analyzer{Net: net, Data: ds}).Evaluate(context.Background(), nil, nil, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained with reconstruction loss: test accuracy %.2f%%\n", 100*acc)

	// Reconstruct the first 8 test digits and save input/output pairs.
	outDir := "reconstructions"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	n := 8
	x := tensor.NewFrom(ds.TestX.Data[:n*sz], n, 1, 20, 20)
	v := m.Forward(x)
	recon := dec.Reconstruct(v, ds.TestY[:n])

	var mse float64
	for i := 0; i < n; i++ {
		in := tensor.NewFrom(x.Data[i*sz:(i+1)*sz], sz)
		out := tensor.NewFrom(recon.Data[i*sz:(i+1)*sz], sz)
		for j := range in.Data {
			d := in.Data[j] - out.Data[j]
			mse += d * d
		}
		if err := savePair(in, out, fmt.Sprintf("%s/digit%d-%d", outDir, ds.TestY[i], i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d input/reconstruction pairs to %s/ (MSE %.4f per image)\n",
		n, outDir, mse/float64(n))
}

// savePair writes <base>-in.png and <base>-out.png.
func savePair(in, out *tensor.Tensor, base string) error {
	tmp := &datasets.Dataset{Name: "pair", ClassNames: []string{"x"},
		Channels: 1, H: 20, W: 20,
		TrainX: in.Reshape(1, 1, 20, 20), TrainY: []int{0}}
	if err := tmp.SamplePNG(0, base+"-in.png"); err != nil {
		return err
	}
	tmp.TrainX = out.Reshape(1, 1, 20, 20)
	return tmp.SamplePNG(0, base+"-out.png")
}
