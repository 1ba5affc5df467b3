package train

import (
	"math"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// LSUVInit performs a layer-sequential unit-variance style initialization
// (Mishkin & Matas, ICLR 2016) on the model: for each layer in forward
// order, its weights are rescaled until the standard deviation of its
// pre-activation (its MAC outputs site: pre-squash conv outputs, or
// routing votes) reaches `target` on the calibration batch x.
//
// Deep capsule stacks need this because the squashing nonlinearity damps
// small vectors quadratically: with plain Glorot initialization the
// activations of a 17-layer DeepCaps collapse to ~1e-40 by the last cell
// and no gradient survives. The reference DeepCaps implementation solves
// this with batch normalization; rescaling the initial weights achieves
// the same signal propagation without adding inference-time machinery.
func LSUVInit(m *Model, x *tensor.Tensor, target float64) {
	for _, l := range m.Net.Layers {
		x = lsuvLayer(l, x, target)
	}
}

// lsuvLayer calibrates one layer (recursing into cells) and returns its
// output on the calibration batch. The pre-activation is the layer's
// MAC outputs site.
func lsuvLayer(l caps.Layer, x *tensor.Tensor, target float64) *tensor.Tensor {
	if cell, ok := l.(*caps.CapsCell); ok {
		a := lsuvLayer(cell.L1, x, target)
		b := lsuvLayer(cell.L2, a, target)
		main := lsuvLayer(cell.L3, b, target)
		skip := lsuvLayer(cell.Skip, a, target)
		return tensor.Add(main, skip)
	}
	const maxIters = 8
	for it := 0; it < maxIters; it++ {
		t := tape{}
		y := l.Forward(x, t, nil, trainBackend{})
		std := t[noise.Site{Layer: l.Name(), Group: noise.MACOutputs}].Std()
		if std <= 0 {
			return y
		}
		scale := target / std
		if math.Abs(scale-1) < 0.02 {
			return y
		}
		for _, w := range l.Params() {
			w.ScaleInPlace(scale)
		}
	}
	return l.Forward(x, noise.None{}, nil, trainBackend{})
}
