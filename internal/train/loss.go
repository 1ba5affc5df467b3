package train

import (
	"math"

	"redcane/internal/tensor"
)

// Margin-loss constants from Sabour et al. (NIPS 2017).
const (
	marginPlus  = 0.9
	marginMinus = 0.1
	marginDown  = 0.5 // λ: down-weight of absent-class loss
)

// MarginLoss computes the capsule margin loss over a batch of class
// capsules v [n, classes, dim] with integer labels, returning the mean
// loss and the gradient with respect to v.
//
//	L_k = T_k·max(0, m⁺−‖v_k‖)² + λ(1−T_k)·max(0, ‖v_k‖−m⁻)²
func MarginLoss(v *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, classes, dim := v.Shape[0], v.Shape[1], v.Shape[2]
	grad = tensor.New(v.Shape...)
	const eps = 1e-12
	for b := 0; b < n; b++ {
		for k := 0; k < classes; k++ {
			base := (b*classes + k) * dim
			norm2 := 0.0
			for d := 0; d < dim; d++ {
				norm2 += v.Data[base+d] * v.Data[base+d]
			}
			norm := math.Sqrt(norm2 + eps)
			var dLdNorm float64
			if k == labels[b] {
				if m := marginPlus - norm; m > 0 {
					loss += m * m
					dLdNorm = -2 * m
				}
			} else {
				if m := norm - marginMinus; m > 0 {
					loss += marginDown * m * m
					dLdNorm = marginDown * 2 * m
				}
			}
			if dLdNorm != 0 {
				for d := 0; d < dim; d++ {
					grad.Data[base+d] = dLdNorm * v.Data[base+d] / norm
				}
			}
		}
	}
	inv := 1.0 / float64(n)
	loss *= inv
	grad.ScaleInPlace(inv)
	return loss, grad
}
