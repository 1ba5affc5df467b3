package axe

import (
	"redcane/internal/approx"
	"redcane/internal/tensor"
)

// quantCapsVotes computes the fully-connected capsule votes û[b,i,j,d] =
// Σ_e W[i,j,d,e]·u[b,i,e] with b-bit quantized operands, multiplying
// exactly (lut nil) or through lut (≤ 8 bits), mirroring caps.ClassCaps'
// float vote stage. u is [n, inCaps, inDim]; w is [inCaps, outCaps,
// outDim, inDim]. The output comes from the scratch arena; callers
// release it.
//
// Each input capsule's raw product sums against its outCaps·outDim
// weight rows are written into the output first: exact MACs by
// tensor.MatVecT over float64 codes (see floatExact), LUT MACs by
// lutGEMM over 8-row weight tiles. The epilogue then adds the
// zero-point cross terms in place, with the batch-independent per-row
// weight-code sums computed once up front; integer sums are order-free,
// so results match the reference (axe_ref.go) exactly. A non-nil ovf
// tallies accumulator overflows (see accSatMax) without changing any
// output bit.
func quantCapsVotes(lut *approx.LUT, u, w *tensor.Tensor, bits uint, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	n, inCaps, inDim := u.Shape[0], u.Shape[1], u.Shape[2]
	outCaps, outDim := w.Shape[1], w.Shape[2]
	rows := outCaps * outDim
	if lut == nil {
		checkFloatExact(inDim, bits)
	}
	qu, uc := quantizeCodes(u, bits, s)
	qw, wc := quantizeCodes(w, bits, s)

	votes := s.Take(n, inCaps, outCaps, outDim, 1)
	if lut == nil {
		uf := floatCodes(uc, 0, s, len(uc))
		wf := floatCodes(wc, 0, s, len(wc))
		for bi := 0; bi < n*inCaps; bi++ {
			i := bi % inCaps
			tensor.MatVecT(votes.Data[bi*rows:(bi+1)*rows], uf.Data[bi*inDim:(bi+1)*inDim], wf.Data[i*rows*inDim:], inDim)
		}
		s.Release(uf, wf)
	} else {
		wt := tileRows(wc, inCaps, rows, inDim, s)
		tile := (rows + 7) / 8 * 8 * inDim // one capsule's tiles
		for bi := 0; bi < n*inCaps; bi++ {
			i := bi % inCaps
			lutGEMM(lut, uc[bi*inDim:(bi+1)*inDim], wt[i*tile:(i+1)*tile], votes.Data[bi*rows:], 1, rows)
		}
		s.ReleaseU16(wt)
	}

	sumW := make([]int64, inCaps*rows)
	for r := range sumW {
		for _, c := range wc[r*inDim : (r+1)*inDim] {
			sumW[r] += int64(c)
		}
	}
	su, mu := qu.Step(), qu.Min
	sw, mw := qw.Step(), qw.Min
	satMax := accSatMax(bits)
	for bi := 0; bi < n*inCaps; bi++ {
		var sumU int64
		for _, c := range uc[bi*inDim : (bi+1)*inDim] {
			sumU += int64(c)
		}
		wsum := sumW[bi%inCaps*rows : (bi%inCaps+1)*rows]
		dst := votes.Data[bi*rows : (bi+1)*rows]
		for jd, v := range dst {
			raw := int64(v)
			if ovf != nil && raw > satMax {
				*ovf++
			}
			dst[jd] = su*sw*float64(raw) +
				su*mw*float64(sumU) +
				sw*mu*float64(wsum[jd]) +
				mu*mw*float64(inDim)
		}
	}
	s.ReleaseU16(uc, wc)
	return votes
}
