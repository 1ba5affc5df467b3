package train

import (
	"math"
	"testing"

	"redcane/internal/datasets"
	"redcane/internal/tensor"
)

func TestDenseForwardShapeAndBias(t *testing.T) {
	l := NewDense("d", 4, 3, Linear, 1)
	l.W.W.Fill(0)
	l.B.W.Data[0], l.B.W.Data[1], l.B.W.Data[2] = 1, 2, 3
	y := l.Forward(tensor.New(2, 4))
	if y.Shape[0] != 2 || y.Shape[1] != 3 {
		t.Fatalf("dense shape = %v", y.Shape)
	}
	if y.At(0, 0) != 1 || y.At(1, 2) != 3 {
		t.Fatalf("bias not applied: %v", y.Data)
	}
}

func TestDenseGradientsAllActivations(t *testing.T) {
	for _, act := range []Activation{Linear, ReLUAct, SigmoidAct} {
		l := NewDense("d", 5, 4, act, 2)
		x := tensor.New(3, 5).FillNormal(tensor.NewRNG(3), 0, 1)
		out := l.Forward(x)
		dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(4), 0, 1)
		l.W.ZeroGrad()
		l.B.ZeroGrad()
		gx := l.Backward(dir)
		fw := func() *tensor.Tensor { return l.Forward(x) }
		numericCheck(t, "dense/x", fw, x, gx, dir, 1e-4)
		numericCheck(t, "dense/W", fw, l.W.W, l.W.G, dir, 1e-4)
		numericCheck(t, "dense/B", fw, l.B.W, l.B.G, dir, 1e-4)
	}
}

func TestSigmoidRange(t *testing.T) {
	l := NewDense("d", 2, 2, SigmoidAct, 5)
	x := tensor.New(4, 2).FillNormal(tensor.NewRNG(6), 0, 10)
	y := l.Forward(x)
	for _, v := range y.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output %g out of (0,1)", v)
		}
	}
}

func TestDecoderMasksToLabeledClass(t *testing.T) {
	d := NewDecoder(3, 4, 8, 8, 16, 7)
	v := tensor.New(2, 3, 4).Fill(0.5)
	d.Reconstruct(v, []int{1, 2})
	// The masked input must be zero except at the labeled capsule.
	for b, label := range []int{1, 2} {
		for c := 0; c < 3; c++ {
			for k := 0; k < 4; k++ {
				got := d.masked.At(b, c*4+k)
				if c == label && got != 0.5 {
					t.Fatalf("labeled capsule not copied: %g", got)
				}
				if c != label && got != 0 {
					t.Fatalf("unlabeled capsule leaked: %g", got)
				}
			}
		}
	}
}

func TestDecoderGradientFlowsOnlyToLabeledCapsule(t *testing.T) {
	d := NewDecoder(3, 4, 8, 8, 16, 8)
	v := tensor.New(1, 3, 4).FillNormal(tensor.NewRNG(9), 0, 0.3)
	x := tensor.New(1, 16).FillUniform(tensor.NewRNG(10), 0, 1)
	recon := d.Reconstruct(v, []int{1})
	_, gv := d.Loss(recon, x, []int{1}, 1)
	for c := 0; c < 3; c++ {
		for k := 0; k < 4; k++ {
			g := gv.At(0, c, k)
			if c != 1 && g != 0 {
				t.Fatalf("gradient leaked to class %d: %g", c, g)
			}
		}
	}
	// Labeled capsule must receive some gradient.
	sum := 0.0
	for k := 0; k < 4; k++ {
		sum += math.Abs(gv.At(0, 1, k))
	}
	if sum == 0 {
		t.Fatal("no gradient to labeled capsule")
	}
}

func TestDecoderLossNumericGradient(t *testing.T) {
	d := NewDecoder(2, 3, 6, 6, 9, 11)
	v := tensor.New(2, 2, 3).FillNormal(tensor.NewRNG(12), 0, 0.5)
	x := tensor.New(2, 9).FillUniform(tensor.NewRNG(13), 0, 1)
	labels := []int{0, 1}

	lossOf := func() float64 {
		recon := d.Reconstruct(v, labels)
		n := recon.Shape[0]
		loss := 0.0
		for i := range recon.Data {
			diff := recon.Data[i] - x.Data[i]
			loss += diff * diff
		}
		return loss / float64(n)
	}
	d.ZeroGrad()
	recon := d.Reconstruct(v, labels)
	_, gv := d.Loss(recon, x, labels, 1)

	const eps = 1e-5
	for i := 0; i < v.Len(); i += 2 {
		orig := v.Data[i]
		v.Data[i] = orig + eps
		plus := lossOf()
		v.Data[i] = orig - eps
		minus := lossOf()
		v.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(gv.Data[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("decoder gv[%d] = %g, numeric %g", i, gv.Data[i], numeric)
		}
	}
}

func TestFitWithReconstructionStillLearns(t *testing.T) {
	ds := datasets.MNISTLike(120, 60, 42)
	ds = filterClasses(ds, 3)
	m := model(
		conv2D("Conv2D", 1, 8, 9, 1, 0, true, 1),
		convCaps2D("Primary", 8, 4, 8, 9, 2, 0, 2),
		classCaps("ClassCaps", 4*2*2, 8, 3, 8, 3, 3),
	)
	dec := NewDecoder(3, 8, 32, 32, 400, 4)
	Fit(m, ds, Config{
		Epochs: 10, BatchSize: 12, LR: 2e-3, Seed: 7, GradClip: 5,
		Decoder: dec,
	})
	if acc := testAccuracy(m, ds); acc < 0.7 {
		t.Fatalf("reconstruction-regularized training failed: %.2f", acc)
	}
	// The decoder must actually reconstruct better than a constant
	// 0.5 image after training.
	x := tensor.NewFrom(ds.TestX.Data[:5*400], 5, 1, 20, 20)
	out := m.Forward(x)
	recon := dec.Reconstruct(out, ds.TestY[:5])
	mse := 0.0
	base := 0.0
	for i := range recon.Data {
		d1 := recon.Data[i] - x.Data[i]
		d2 := 0.5 - x.Data[i]
		mse += d1 * d1
		base += d2 * d2
	}
	if mse >= base {
		t.Fatalf("decoder reconstruction (MSE %g) no better than constant (%g)", mse, base)
	}
}
