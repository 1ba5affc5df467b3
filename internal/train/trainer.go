package train

import (
	"context"
	"fmt"
	"io"
	"math"

	"redcane/internal/datasets"
	"redcane/internal/tensor"
)

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      uint64
	// GradClip caps the global gradient L2 norm (0 disables clipping).
	GradClip float64
	// Log, if non-nil, receives one line per epoch.
	Log io.Writer
	// Decoder, if non-nil, adds Sabour et al.'s reconstruction
	// regularizer with the given weight (ReconWeight defaults to
	// 0.0005 per pixel-sum, the original setting, when zero).
	Decoder     *Decoder
	ReconWeight float64
}

// Result summarizes a training run. Accuracy is measured on the trained
// network itself, e.g. by core.Analyzer.Evaluate.
type Result struct {
	FinalLoss float64
	Epochs    int
}

// Fit trains the model's network in place on the dataset with Adam and
// the margin loss.
func Fit(m *Model, ds *datasets.Dataset, cfg Config) Result {
	res, err := FitCtx(context.Background(), m, ds, cfg)
	if err != nil {
		// Unreachable: a background context never cancels.
		panic(err)
	}
	return res
}

// FitCtx is Fit with cancellation: when ctx is cancelled training stops
// at the next batch boundary and returns ctx's error. The model then
// holds partially trained weights — callers must not cache them as a
// finished run (training is restarted, not resumed, on a rerun).
func FitCtx(ctx context.Context, m *Model, ds *datasets.Dataset, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	if cfg.ReconWeight == 0 {
		cfg.ReconWeight = 0.0005 * 784 // Sabour et al.: 0.0005 × SSE
	}
	opt := NewAdam(cfg.LR)
	rng := tensor.NewRNG(cfg.Seed)
	n := ds.TrainX.Shape[0]
	sample := ds.Channels * ds.H * ds.W
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	params := m.Params()
	if cfg.Decoder != nil {
		params = append(params, cfg.Decoder.Params()...)
	}

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return Result{FinalLoss: lastLoss, Epochs: epoch}, err
			}
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			bs := hi - lo
			xb := tensor.New(bs, ds.Channels, ds.H, ds.W)
			yb := make([]int, bs)
			for i := 0; i < bs; i++ {
				idx := order[lo+i]
				copy(xb.Data[i*sample:], ds.TrainX.Data[idx*sample:(idx+1)*sample])
				yb[i] = ds.TrainY[idx]
			}
			m.ZeroGrad()
			out := m.Forward(xb)
			loss, grad := MarginLoss(out, yb)
			if cfg.Decoder != nil {
				cfg.Decoder.ZeroGrad()
				recon := cfg.Decoder.Reconstruct(out, yb)
				flat := xb.Reshape(bs, sample)
				rl, gv := cfg.Decoder.Loss(recon, flat, yb, cfg.ReconWeight/float64(sample))
				loss += rl
				grad.AddInPlace(gv)
			}
			m.Backward(grad)
			if cfg.GradClip > 0 {
				clipGrads(params, cfg.GradClip)
			}
			opt.Step(params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %d/%d: loss=%.4f\n", epoch+1, cfg.Epochs, lastLoss)
		}
	}
	return Result{FinalLoss: lastLoss, Epochs: cfg.Epochs}, nil
}

// clipGrads rescales all gradients so their global L2 norm is at most c.
func clipGrads(params []*Param, c float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G.Data {
			total += g * g
		}
	}
	if total <= c*c {
		return
	}
	scale := c / math.Sqrt(total)
	for _, p := range params {
		p.G.ScaleInPlace(scale)
	}
}
