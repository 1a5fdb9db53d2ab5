package residue

import (
	"fmt"
	"math/bits"

	"polyecc/internal/wideint"
)

// foldMaxBits bounds the moduli the byte-fold tables cover: Remainder
// sums up to 24 table entries below M before one final reduction, so
// 24*(M-1) must not overflow a uint64. Every paper configuration is far
// below this; larger multipliers fall back to the wide division.
const foldMaxBits = 59

// Tables bundles the precomputed modular machinery for one (M, geometry)
// pair: the per-symbol powers 2^offset mod M and their inverses (the
// Eq. 2 / Eq. 3 operands the hardware's Error-Candidate Generator keeps
// in ROM, Figure 9(c)), plus per-byte-position fold tables that turn the
// codeword remainder into table lookups and adds instead of a chained
// wide division. NewTables is called once per Code; the methods are
// read-only and safe for concurrent use.
type Tables struct {
	M   uint64
	G   Geometry
	Inv []uint64 // Inv(2^SymbolOffset(s)) mod M per symbol (Eq. 2)
	Pow []uint64 // 2^SymbolOffset(s) mod M per symbol (Eq. 3)

	small  bool // M < 2^32: products fit a uint64, skip the wide division
	folded bool // fold tables built (M small enough for the sum bound)
	// fold[l][p][b] = b * 2^(8*(8l+p)) mod M for byte p of limb l of a
	// little-endian U192, so a codeword's remainder is the reduced sum of
	// one entry per nonzero byte.
	fold [3][8][256]uint64

	// fastmod is ⌈2^64/M⌉ when M < 2^27 (0 disables it): the
	// Lemire–Kaser–Kurz direct-modulus multiplier, exact for any
	// dividend below 2^32. Remainder's fold sum is at most 24(M-1),
	// which the 2^27 cap keeps under 2^32, so the final reduction is two
	// multiplies instead of a hardware divide.
	fastmod uint64
}

// NewTables precomputes the tables for multiplier m over geometry g.
// m must be odd (2 must be invertible) and define a valid geometry.
func NewTables(m uint64, g Geometry) (*Tables, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if m < 2 {
		return nil, fmt.Errorf("residue: multiplier %d out of range", m)
	}
	inv, err := Pow2Inverses(m, g)
	if err != nil {
		return nil, err
	}
	t := &Tables{
		M:     m,
		G:     g,
		Inv:   inv,
		Pow:   make([]uint64, g.NumSymbols),
		small: m < 1<<32,
	}
	for s := 0; s < g.NumSymbols; s++ {
		t.Pow[s] = PowMod(2, uint64(g.SymbolOffset(s)), m)
	}
	if m > 1 && bits.Len64(m) < 28 {
		t.fastmod = ^uint64(0)/m + 1 // = ⌈2^64/M⌉ for odd M
	}
	if bits.Len64(m) <= foldMaxBits {
		t.folded = true
		for p := 0; p < 24; p++ {
			step := PowMod(2, uint64(8*p), m)
			acc := uint64(0)
			for b := 1; b < 256; b++ {
				acc += step
				if acc >= m {
					acc -= m
				}
				t.fold[p/8][p%8][b] = acc
			}
		}
	}
	return t, nil
}

// MulMod is a*b mod M, taking the single-multiply path when both
// operands fit 32 bits — with M below 2^32 every reduced operand does,
// so the hot callers (remainders, inverses, and powers are all < M) pay
// one multiply and one divide.
func (t *Tables) MulMod(a, b uint64) uint64 {
	if t.small && (a|b)>>32 == 0 {
		p := a * b
		if t.fastmod != 0 && p>>32 == 0 {
			return t.fastReduce(p)
		}
		return p % t.M
	}
	return MulMod(a, b, t.M)
}

// fastReduce returns x mod M for x < 2^32 with two multiplies
// (Lemire–Kaser–Kurz): the low 64 bits of ⌈2^64/M⌉·x carry the
// fractional part of x/M, and its product with M recovers the
// remainder in the high limb. Callers guarantee t.fastmod != 0.
func (t *Tables) fastReduce(x uint64) uint64 {
	hi, _ := bits.Mul64(t.fastmod*x, t.M)
	return hi
}

// Remainder returns u mod M by folding u's nonzero bytes through the
// tables — for an 80-bit codeword that is ten lookups, nine adds, and
// one final reduction.
func (t *Tables) Remainder(u wideint.U192) uint64 {
	if !t.folded {
		return u.Mod64(t.M)
	}
	acc := foldLimb(&t.fold[0], u.W0)
	if u.W1 != 0 {
		acc += foldLimb(&t.fold[1], u.W1)
	}
	if u.W2 != 0 {
		acc += foldLimb(&t.fold[2], u.W2)
	}
	if t.fastmod != 0 { // acc ≤ 24(M-1) < 2^32 whenever fastmod is armed
		return t.fastReduce(acc)
	}
	return acc % t.M
}

// RemainderBatch is Remainder over a batch of codewords: a line's
// codewords, folded once per poly decode and fast encode. The fold
// tables a batch touches (one 2KB column per codeword byte) are
// L1-resident, so the win over calling Remainder per word is not cache
// blocking but straight-line folding: the 80-bit layout's ten lookups
// run fully unrolled with the limb-size and reduction branches hoisted
// out of the word loop, and a tree of register adds replaces foldLimb's
// per-limb dispatch. (A column-major bit-sliced walk was measured 2.3x
// slower here: it trades register accumulation for a dst load+store per
// column.) dst[i] receives words[i] mod M; dst and words must have
// equal length.
func (t *Tables) RemainderBatch(dst []uint64, words []wideint.U192) {
	dst = dst[:len(words)]
	if !t.folded {
		for i, w := range words {
			dst[i] = w.Mod64(t.M)
		}
		return
	}
	if t.G.CodewordBits() == 80 && t.fastmod != 0 {
		f0, f1 := &t.fold[0], &t.fold[1]
		for i, w := range words {
			// Bits above the 80-bit codeword never occur in legitimate
			// words; a stray word takes the scalar fold so batch and
			// single-word remainders agree on any input.
			if w.W1>>16 != 0 || w.W2 != 0 {
				dst[i] = t.Remainder(w)
				continue
			}
			acc := ((f0[0][byte(w.W0)] + f0[1][byte(w.W0>>8)]) +
				(f0[2][byte(w.W0>>16)] + f0[3][byte(w.W0>>24)])) +
				((f0[4][byte(w.W0>>32)] + f0[5][byte(w.W0>>40)]) +
					(f0[6][byte(w.W0>>48)] + f0[7][byte(w.W0>>56)])) +
				(f1[0][byte(w.W1)] + f1[1][byte(w.W1>>8)])
			dst[i] = t.fastReduce(acc)
		}
		return
	}
	for i, w := range words {
		dst[i] = t.Remainder(w)
	}
}

// foldLimb folds one 64-bit limb through its eight byte tables. The
// loads are independent and the adds tree-shaped, so the limb folds at
// load throughput rather than a divide's latency; a half-empty limb
// (the top of an 80-bit codeword) takes the short path.
func foldLimb(f *[8][256]uint64, w uint64) uint64 {
	if w <= 0xffff {
		return f[0][byte(w)] + f[1][byte(w>>8)]
	}
	if w <= 0xffffffff {
		return (f[0][byte(w)] + f[1][byte(w>>8)]) + (f[2][byte(w>>16)] + f[3][byte(w>>24)])
	}
	return ((f[0][byte(w)] + f[1][byte(w>>8)]) + (f[2][byte(w>>16)] + f[3][byte(w>>24)])) +
		((f[4][byte(w>>32)] + f[5][byte(w>>40)]) + (f[6][byte(w>>48)] + f[7][byte(w>>56)]))
}

// SymbolRemainder is SymbolErrorRemainder priced from the tables: the
// remainder produced by changing symbol s by the signed delta d.
func (t *Tables) SymbolRemainder(d int64, s int) uint64 {
	return t.MulMod(SignedMod(d, t.M), t.Pow[s])
}

// SymbolCandidatesInto is SymbolCandidatesInto(dst, rem, M, G, Inv)
// evaluated through the tables' fast multiply.
func (t *Tables) SymbolCandidatesInto(dst []Candidate, rem uint64) []Candidate {
	if rem == 0 {
		return dst
	}
	maxDelta := int64(1)<<uint(t.G.SymbolBits) - 1
	out := dst
	for s := 0; s < t.G.NumSymbols; s++ {
		e := t.MulMod(rem, t.Inv[s])
		if e == 0 {
			continue
		}
		if int64(e) <= maxDelta {
			out = append(out, Candidate{Symbol: s, Delta: int64(e)})
		}
		if int64(t.M-e) <= maxDelta {
			out = append(out, Candidate{Symbol: s, Delta: -int64(t.M - e)})
		}
	}
	return out
}

// SolvePair is SolvePair(rem, sA, sB, dB, M, G, Inv) evaluated through
// the tables, replacing the per-call PowMod with a stored power.
func (t *Tables) SolvePair(rem uint64, sA, sB int, dB int64) (int64, bool) {
	partial := t.MulMod(SignedMod(dB, t.M), t.Pow[sB])
	residual := rem + t.M - partial
	if residual >= t.M {
		residual -= t.M
	}
	if residual == 0 {
		return 0, false // dA would be zero: not a two-symbol error
	}
	e := t.MulMod(residual, t.Inv[sA])
	maxDelta := int64(1)<<uint(t.G.SymbolBits) - 1
	switch {
	case int64(e) <= maxDelta:
		return int64(e), true
	case int64(t.M-e) <= maxDelta:
		return -int64(t.M - e), true
	}
	return 0, false
}
