package main

import (
	"context"
	"time"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// probeReps is how many times each direct layer call is timed; the
// median is reported.
const probeReps = 3

func medianTime(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// probe times library characterization with Design's arguments on both
// workloads, Gaussian injection on design and the three evaluation
// backends on validate.
func (w *runnerWorkload) probe(inst instance) (map[string]float64, error) {
	in := inst.(*runnerInstance)
	in.r.Cfg.Obs = nil
	in.t.Net.Obs = nil
	out := map[string]float64{}
	fig11, err := in.r.Fig11()
	if err != nil {
		return nil, err
	}
	dist := approx.EmpiricalDist(fig11.PoolA, fig11.PoolB)
	if out["approx.characterize_s"], err = medianTime(func() error {
		core.ProfileLibraryDepths(dist, core.LibraryChainLens, 5000, w.seed+9)
		return nil
	}); err != nil {
		return nil, err
	}
	if w.kind == "design" {
		out["noise.gaussian_ns_per_elem"] = gaussianNsPerElem(in.t.Net, in.t.Data.TestX, w.seed)
		return out, nil
	}

	d, err := in.r.Design(w.benchmark())
	if err != nil {
		return nil, err
	}
	design, err := core.DesignBackend(d.Report.Choices, 8)
	if err != nil {
		return nil, err
	}
	for name, be := range map[string]caps.Backend{
		"caps.float_eval_s":       caps.Float{},
		"axe.quant_exact_eval_s":  axe.QuantExact{Bits: 8},
		"axe.quant_approx_eval_s": design,
	} {
		if out[name], err = medianTime(func() error {
			// A fresh analyzer each time: a retained clean prefix would
			// turn repeats into cache hits. The options are Validate's.
			a := &core.Analyzer{Net: in.t.Net, Data: in.t.Data, Opts: core.Options{
				Trials: 1, Batch: 32, Threshold: 0.02, Seed: w.seed + 25, MaxEval: 60, Workers: w.workers,
			}.WithDefaults()}
			_, err := a.EvalBackend(context.Background(), be, "")
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// largestMAC is an injector that keeps a copy of the largest MAC-output
// tensor a forward pass produces.
type largestMAC struct {
	site noise.Site
	x    *tensor.Tensor
}

func (p *largestMAC) Inject(s noise.Site, x *tensor.Tensor) *tensor.Tensor {
	if s.Group == noise.MACOutputs && (p.x == nil || x.Len() > p.x.Len()) {
		p.site = s
		p.x = tensor.NewFrom(append([]float64(nil), x.Data...), x.Shape...)
	}
	return x
}

// gaussianNsPerElem times Gaussian noise injection on the network's
// largest MAC-output tensor for one 32-sample batch.
func gaussianNsPerElem(net *caps.Network, testX *tensor.Tensor, seed uint64) float64 {
	n := 32
	if n > testX.Shape[0] {
		n = testX.Shape[0]
	}
	sample := testX.Len() / testX.Shape[0]
	x := tensor.NewFrom(testX.Data[:n*sample], append([]int{n}, testX.Shape[1:]...)...)
	p := &largestMAC{}
	net.Forward(x, p)
	g := noise.NewGaussian(0.1, 0, noise.All(), seed)
	reps := 0
	t0 := time.Now()
	for reps < 3 || time.Since(t0) < 300*time.Millisecond {
		g.Inject(p.site, p.x)
		reps++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*p.x.Len())
}
