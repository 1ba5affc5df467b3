// Package models defines the two CapsNet architectures of the paper's
// evaluation — DeepCaps (Rajasegaran et al., CVPR 2019) and the original
// CapsNet (Sabour et al., NIPS 2017) — as specs that build the one
// capsule network (internal/caps) which internal/train trains in place
// and the resilience analysis runs.
//
// Two spec scales exist: the trainable scale (reduced channel counts for
// pure-Go training on synthetic data) and the paper's full-size DeepCaps
// (used only for the Table I / Fig. 4 / Fig. 5 energy analysis).
package models

import (
	"fmt"

	"redcane/internal/caps"
	"redcane/internal/tensor"
)

// ConvSpec describes the stem convolution.
type ConvSpec struct {
	Out, K, Stride, Pad int
}

// CapsLayerSpec describes one ConvCaps2D layer.
type CapsLayerSpec struct {
	Caps, Dim, K, Stride, Pad int
}

// CellSpec describes one DeepCaps residual cell: three sequential
// ConvCaps2D layers plus a skip branch (ConvCaps2D, or ConvCaps3D with
// dynamic routing when Routing3D is set).
type CellSpec struct {
	L1, L2, L3, Skip CapsLayerSpec
	Routing3D        bool
	RoutingIters     int
}

// ClassCapsSpec describes the final fully-connected capsule layer.
type ClassCapsSpec struct {
	OutCaps, OutDim, RoutingIters int
}

// Spec is a complete CapsNet architecture.
type Spec struct {
	Name       string
	InputShape []int // [C, H, W]
	Conv       ConvSpec
	// Cells is empty for the original CapsNet.
	Cells []CellSpec
	// Primary is the CapsNet PrimaryCaps layer (ignored when Cells is
	// non-empty).
	Primary *CapsLayerSpec
	Class   ClassCapsSpec
}

// DeepCaps returns the trainable-scale DeepCaps spec for the given input
// shape: a conv stem and four residual capsule cells (15 ConvCaps2D
// layers plus one ConvCaps3D with dynamic routing, exactly the layer
// inventory of the paper's Fig. 2/Fig. 10), ending in ClassCaps.
func DeepCaps(inputShape []int, classes int) Spec {
	cell := func(caps, dim, iters int, routing3D bool) CellSpec {
		return CellSpec{
			L1:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 2, Pad: 1},
			L2:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			L3:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			Skip:         CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			Routing3D:    routing3D,
			RoutingIters: iters,
		}
	}
	return Spec{
		Name:       "deepcaps",
		InputShape: append([]int(nil), inputShape...),
		Conv:       ConvSpec{Out: 32, K: 3, Stride: 1, Pad: 1},
		Cells: []CellSpec{
			cell(8, 4, 0, false),
			cell(8, 8, 0, false),
			cell(8, 8, 0, false),
			cell(8, 8, 3, true),
		},
		Class: ClassCapsSpec{OutCaps: classes, OutDim: 16, RoutingIters: 3},
	}
}

// CapsNet returns the trainable-scale original CapsNet spec: Conv9×9 →
// PrimaryCaps (ConvCaps2D 9×9 stride 2) → ClassCaps with dynamic routing.
func CapsNet(inputShape []int, classes int) Spec {
	return Spec{
		Name:       "capsnet",
		InputShape: append([]int(nil), inputShape...),
		Conv:       ConvSpec{Out: 32, K: 9, Stride: 1, Pad: 0},
		Primary:    &CapsLayerSpec{Caps: 8, Dim: 8, K: 9, Stride: 2, Pad: 0},
		Class:      ClassCapsSpec{OutCaps: classes, OutDim: 16, RoutingIters: 3},
	}
}

// FullDeepCaps returns the paper-scale DeepCaps (32 capsule types, 64×64
// input as used for CIFAR-10 in the DeepCaps paper). It exists for the
// energy analysis only; do not train it.
func FullDeepCaps() Spec {
	cell := func(caps, dim, iters int, routing3D bool) CellSpec {
		return CellSpec{
			L1:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 2, Pad: 1},
			L2:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			L3:           CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			Skip:         CapsLayerSpec{Caps: caps, Dim: dim, K: 3, Stride: 1, Pad: 1},
			Routing3D:    routing3D,
			RoutingIters: iters,
		}
	}
	return Spec{
		Name:       "deepcaps-full",
		InputShape: []int{3, 64, 64},
		Conv:       ConvSpec{Out: 128, K: 3, Stride: 1, Pad: 1},
		Cells: []CellSpec{
			cell(32, 4, 0, false),
			cell(32, 8, 0, false),
			cell(32, 8, 0, false),
			cell(32, 8, 3, true),
		},
		Class: ClassCapsSpec{OutCaps: 10, OutDim: 16, RoutingIters: 3},
	}
}

// geometry computes the spatial size after the stem and each cell, and
// the ClassCaps input capsule count/dimension.
func (s Spec) geometry() (inCapsClass, inDimClass int, err error) {
	h, w := s.InputShape[1], s.InputShape[2]
	out := func(h, w, k, stride, pad int) (int, int) {
		return (h+2*pad-k)/stride + 1, (w+2*pad-k)/stride + 1
	}
	h, w = out(h, w, s.Conv.K, s.Conv.Stride, s.Conv.Pad)
	if len(s.Cells) > 0 {
		var lastCaps, lastDim int
		for _, c := range s.Cells {
			h, w = out(h, w, c.L1.K, c.L1.Stride, c.L1.Pad)
			lastCaps, lastDim = c.L3.Caps, c.L3.Dim
		}
		if h < 1 || w < 1 {
			return 0, 0, fmt.Errorf("models: input %v too small for %s", s.InputShape, s.Name)
		}
		return lastCaps * h * w, lastDim, nil
	}
	if s.Primary == nil {
		return 0, 0, fmt.Errorf("models: spec %s has neither cells nor primary caps", s.Name)
	}
	h, w = out(h, w, s.Primary.K, s.Primary.Stride, s.Primary.Pad)
	if h < 1 || w < 1 {
		return 0, 0, fmt.Errorf("models: input %v too small for %s", s.InputShape, s.Name)
	}
	return s.Primary.Caps * h * w, s.Primary.Dim, nil
}

// layerNames follow the paper's Fig. 10 labels: Conv2D, Caps2D1..15,
// Caps3D, ClassCaps (and Primary for the original CapsNet).

// BuildInference constructs the network with Glorot-initialized weights:
// train it in place with internal/train, or load trained weights via
// internal/params.
func BuildInference(s Spec, seed uint64) (*caps.Network, error) {
	inCaps, inDim, err := s.geometry()
	if err != nil {
		return nil, err
	}
	rngSeed := seed
	nextSeed := func() uint64 { rngSeed++; return rngSeed }

	inCh := s.InputShape[0]
	layers := []caps.Layer{&caps.Conv2D{
		LayerName: "Conv2D",
		W: tensor.New(s.Conv.Out, inCh, s.Conv.K, s.Conv.K).
			FillGlorot(tensor.NewRNG(nextSeed()), inCh*s.Conv.K*s.Conv.K, s.Conv.Out*s.Conv.K*s.Conv.K),
		B:      tensor.New(s.Conv.Out),
		Stride: s.Conv.Stride, Pad: s.Conv.Pad, ReLU: true,
	}}
	ch := s.Conv.Out

	if len(s.Cells) > 0 {
		idx := 1
		for ci, c := range s.Cells {
			mk := func(name string, ls CapsLayerSpec, in int) *caps.ConvCaps2D {
				return &caps.ConvCaps2D{
					LayerName: name, Caps: ls.Caps, Dim: ls.Dim,
					W: tensor.New(ls.Caps*ls.Dim, in, ls.K, ls.K).
						FillGlorot(tensor.NewRNG(nextSeed()), in*ls.K*ls.K, ls.Caps*ls.Dim*ls.K*ls.K),
					B:      tensor.New(ls.Caps * ls.Dim),
					Stride: ls.Stride, Pad: ls.Pad,
				}
			}
			l1 := mk(fmt.Sprintf("Caps2D%d", idx), c.L1, ch)
			mid := c.L1.Caps * c.L1.Dim
			l2 := mk(fmt.Sprintf("Caps2D%d", idx+1), c.L2, mid)
			l3 := mk(fmt.Sprintf("Caps2D%d", idx+2), c.L3, c.L2.Caps*c.L2.Dim)
			var skip caps.Layer
			if c.Routing3D {
				k := c.Skip.K
				skip = &caps.ConvCaps3D{
					LayerName: "Caps3D",
					InCaps:    c.L1.Caps, InDim: c.L1.Dim,
					OutCaps: c.Skip.Caps, OutDim: c.Skip.Dim,
					W: tensor.New(c.L1.Caps, c.Skip.Caps*c.Skip.Dim, c.L1.Dim, k, k).
						FillGlorot(tensor.NewRNG(nextSeed()), c.L1.Dim*k*k, c.Skip.Caps*c.Skip.Dim*k*k),
					Stride: c.Skip.Stride, Pad: c.Skip.Pad,
					RoutingIterations: c.RoutingIters,
				}
				idx += 3
			} else {
				skip = mk(fmt.Sprintf("Caps2D%d", idx+3), c.Skip, mid)
				idx += 4
			}
			layers = append(layers, &caps.CapsCell{
				CellName: fmt.Sprintf("Cell%d", ci+1),
				L1:       l1, L2: l2, L3: l3, Skip: skip,
			})
			ch = c.L3.Caps * c.L3.Dim
		}
	} else {
		p := s.Primary
		layers = append(layers, &caps.ConvCaps2D{
			LayerName: "Primary", Caps: p.Caps, Dim: p.Dim,
			W: tensor.New(p.Caps*p.Dim, ch, p.K, p.K).
				FillGlorot(tensor.NewRNG(nextSeed()), ch*p.K*p.K, p.Caps*p.Dim*p.K*p.K),
			B:      tensor.New(p.Caps * p.Dim),
			Stride: p.Stride, Pad: p.Pad,
		})
	}

	layers = append(layers, &caps.ClassCaps{
		LayerName: "ClassCaps",
		InCaps:    inCaps, InDim: inDim,
		OutCaps: s.Class.OutCaps, OutDim: s.Class.OutDim,
		W: tensor.New(inCaps, s.Class.OutCaps, s.Class.OutDim, inDim).
			FillGlorot(tensor.NewRNG(nextSeed()), inDim, s.Class.OutDim),
		RoutingIterations: s.Class.RoutingIters,
	})

	return &caps.Network{
		NetName:    s.Name,
		InputShape: append([]int(nil), s.InputShape...),
		Layers:     layers,
	}, nil
}
