package train

import (
	"math"

	"redcane/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard defaults for the betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{},
	}
}

// Step applies one Adam update to params from their accumulated
// gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			o.m[p], o.v[p] = m, v
		}
		for i := range p.W.Data {
			g := p.G.Data[i]
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.W.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
	}
}
