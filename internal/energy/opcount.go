package energy

// Operation-count formulas for the building blocks of a CapsNet
// computational path. These are used by internal/models to walk an
// architecture spec and produce the Table I tallies.

// Conv2DOps counts the MAC operations of a 2D convolution producing an
// oh×ow×outCh output from an inCh input with kh×kw kernels (bias included
// as one extra add per output element).
func Conv2DOps(oh, ow, outCh, inCh, kh, kw int) Counts {
	outs := float64(oh * ow * outCh)
	macs := outs * float64(inCh*kh*kw)
	return Counts{Mul: macs, Add: macs /* kh·kw·inCh-1 adds + 1 bias add */}
}

// SquashOps counts the squashing nonlinearity over `vectors` capsule
// vectors of dimension dim. Per vector: dim multiplications and dim−1
// additions for the squared norm, one square root, one addition and one
// division for the scale factor, and dim multiplications (with the scale
// folded into one division per element on a hardware datapath, we charge
// dim divisions, matching how accelerators implement x/(const)·x̂).
func SquashOps(vectors, dim int) Counts {
	v := float64(vectors)
	d := float64(dim)
	return Counts{
		Mul:  v * 2 * d,
		Add:  v * d, // d−1 norm adds + 1 for (1+‖s‖²)
		Div:  v * d, // elementwise scale application
		Sqrt: v,
	}
}

// SquashVariantOps counts the approximate squash variants of
// internal/approx. sqnorm drops the exact square root for the one-segment
// LinearSqrt chord — an exponent shift, one multiply and one add per
// vector — leaving the rest of the tally unchanged. Unknown or exact
// names fall through to the exact SquashOps tally.
func SquashVariantOps(name string, vectors, dim int) Counts {
	if name != "sqnorm" {
		return SquashOps(vectors, dim)
	}
	c := SquashOps(vectors, dim)
	v := float64(vectors)
	c.Sqrt -= v
	c.Mul += v // 2m/3 chord slope
	c.Add += v // + 1/3 chord intercept (the exponent shift rides free)
	return c
}

// SoftmaxOps counts softmax over groups of n logits each.
func SoftmaxOps(groups, n int) Counts {
	g := float64(groups)
	return Counts{
		Exp: g * float64(n),
		Add: g * float64(n-1),
		Div: g * float64(n),
	}
}

// SoftmaxVariantOps counts the approximate softmax variants of
// internal/approx. base2 replaces every exponential with a barrel shift
// of the exponent field — charged as one add, the cheapest Table I class,
// since a shifter's energy is of that order. pwl additionally reads the
// mantissa chord 1+f, one more add per logit. Unknown or exact names fall
// through to the exact SoftmaxOps tally.
func SoftmaxVariantOps(name string, groups, n int) Counts {
	g := float64(groups)
	gn := g * float64(n)
	switch name {
	case "base2":
		return Counts{
			Add: gn + g*float64(n-1), // shift per logit + normalization adds
			Div: gn,
		}
	case "pwl":
		return Counts{
			Add: 2*gn + g*float64(n-1), // shift + chord add per logit
			Div: gn,
		}
	default:
		return SoftmaxOps(groups, n)
	}
}

// RoutingOps counts one iteration of dynamic routing between inCaps input
// capsules and outCaps output capsules of dimension dim (per spatial
// position; multiply by positions before calling, or fold positions into
// inCaps/outCaps):
//
//	k = softmax(b)          — SoftmaxOps(inCaps, outCaps)
//	s_j = Σ_i k_ij û_ij     — inCaps·outCaps·dim MACs
//	v_j = squash(s_j)       — SquashOps(outCaps, dim)
//	b_ij += û_ij · v_j      — inCaps·outCaps·dim MACs + inCaps·outCaps adds
func RoutingOps(inCaps, outCaps, dim int) Counts {
	macs := float64(inCaps * outCaps * dim)
	c := Counts{Mul: 2 * macs, Add: 2*macs + float64(inCaps*outCaps)}
	c = c.Plus(SoftmaxOps(inCaps, outCaps))
	c = c.Plus(SquashOps(outCaps, dim))
	return c
}

// CapsVotesOps counts the vote computation û_ij = W_ij · u_i of a
// fully-connected capsule layer: one dInxdOut matrix-vector product per
// (input capsule, output capsule) pair.
func CapsVotesOps(inCaps, outCaps, dIn, dOut int) Counts {
	macs := float64(inCaps * outCaps * dIn * dOut)
	return Counts{Mul: macs, Add: macs}
}
