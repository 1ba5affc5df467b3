package approx

// LUT is a fully enumerated 8×8 multiplier: 65536 precomputed products.
// It turns any behavioral Multiplier into an O(1) table lookup, which is
// what the approximate execution engine (internal/axe) uses on its hot
// path, and doubles as a golden reference when validating models.
type LUT struct {
	table [256][256]uint16 // table[a][b] = Mul(a, b), flat index a<<8|b
}

// CompileLUT enumerates m over all input pairs.
func CompileLUT(m Multiplier) *LUT {
	l := &LUT{}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			l.table[a][b] = m.Mul(uint8(a), uint8(b))
		}
	}
	return l
}

// Mul returns the tabulated product.
func (l *LUT) Mul(a, b uint8) uint16 {
	return l.table[a][b]
}

// Row returns the products Mul(a, b) for every b: one contiguous
// 256-entry row of the table, so a kernel that holds a fixed indexes
// it by b alone, with no bounds check for a uint8 index.
func (l *LUT) Row(a uint8) *[256]uint16 {
	return &l.table[a]
}

var _ Multiplier = (*LUT)(nil)
