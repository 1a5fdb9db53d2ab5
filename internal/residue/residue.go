// Package residue implements the modular-arithmetic machinery behind
// Polymorphic ECC (Manzhosov & Sethumadhavan, MICRO 2024).
//
// A Polymorphic ECC codeword is ≡ 0 (mod M) for a small odd multiplier M.
// An in-memory error adds an integer e to the codeword, so the read-time
// remainder is R = e mod M. This package provides:
//
//   - modular inverses and multiplication for 64-bit moduli,
//   - Algorithm 1 from the paper: deciding whether a multiplier defines a
//     code for a given symbol geometry and computing the aliasing degree
//     of every remainder,
//   - Eq. 2 from the paper: deriving the (at most one per symbol)
//     candidate symbol-value delta for a remainder at runtime,
//   - the multiplier search used for the Figure 7 trade-off study.
package residue

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Geometry describes how a codeword is divided into naturally aligned
// symbols. A DDR5 x4 configuration with 8-bit symbols has 10 symbols of 8
// bits (an 80-bit codeword); the 16-bit variant has 10 symbols of 16 bits
// (a 160-bit codeword).
type Geometry struct {
	NumSymbols int // symbols per codeword
	SymbolBits int // bits per symbol (4, 8, or 16)
}

// CodewordBits returns the total codeword width in bits.
func (g Geometry) CodewordBits() int { return g.NumSymbols * g.SymbolBits }

// SymbolOffset returns the bit offset of symbol s within the codeword.
func (g Geometry) SymbolOffset(s int) int { return s * g.SymbolBits }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.NumSymbols <= 0 || g.SymbolBits <= 0 {
		return fmt.Errorf("residue: geometry %+v: fields must be positive", g)
	}
	if g.SymbolBits > 32 {
		return fmt.Errorf("residue: geometry %+v: symbols wider than 32 bits are not supported", g)
	}
	if g.CodewordBits() > 192 {
		return fmt.Errorf("residue: geometry %+v: codeword exceeds 192 bits", g)
	}
	return nil
}

// DDR5x8 is the paper's main configuration: 80-bit codewords of ten 8-bit
// symbols, each symbol holding the two beats of one x4 DRAM device.
var DDR5x8 = Geometry{NumSymbols: 10, SymbolBits: 8}

// DDR5x16 is the 16-bit-symbol configuration: 160-bit codewords of ten
// 16-bit symbols (four beats per x4 device).
var DDR5x16 = Geometry{NumSymbols: 10, SymbolBits: 16}

// MulMod returns a*b mod m without overflow for any 64-bit inputs, m > 0.
func MulMod(a, b, m uint64) uint64 {
	if m == 0 {
		panic("residue: modulo by zero")
	}
	hi, lo := bits.Mul64(a%m, b%m)
	_, r := bits.Div64(hi, lo, m)
	return r
}

// PowMod returns b^e mod m, m > 0.
func PowMod(b, e, m uint64) uint64 {
	if m == 0 {
		panic("residue: modulo by zero")
	}
	if m == 1 {
		return 0
	}
	r := uint64(1)
	b %= m
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, b, m)
		}
		b = MulMod(b, b, m)
		e >>= 1
	}
	return r
}

// ModInverse returns x with a*x ≡ 1 (mod m), and whether it exists
// (gcd(a, m) == 1). m must be > 1.
func ModInverse(a, m uint64) (uint64, bool) {
	if m <= 1 {
		return 0, false
	}
	a %= m
	// Extended Euclid on (a, m) tracking only the coefficient of a,
	// using int64 arithmetic; moduli here are far below 2^31 in practice
	// but signed 64-bit handles the full supported range of small moduli.
	var t0, t1 int64 = 0, 1
	var r0, r1 = int64(m), int64(a)
	for r1 != 0 {
		q := r0 / r1
		t0, t1 = t1, t0-q*t1
		r0, r1 = r1, r0-q*r1
	}
	if r0 != 1 {
		return 0, false
	}
	if t0 < 0 {
		t0 += int64(m)
	}
	return uint64(t0), true
}

// Pow2Inverses returns Inv(2^L) mod m for L = SymbolOffset(s) of each
// symbol, i.e. the table the Error-Candidate Generator of Figure 9(c)
// uses to evaluate Eq. 2. It fails if m is even.
func Pow2Inverses(m uint64, g Geometry) ([]uint64, error) {
	if m%2 == 0 {
		return nil, fmt.Errorf("residue: multiplier %d is even; 2 has no inverse", m)
	}
	inv2, ok := ModInverse(2, m)
	if !ok {
		return nil, fmt.Errorf("residue: no inverse of 2 mod %d", m)
	}
	out := make([]uint64, g.NumSymbols)
	for s := 0; s < g.NumSymbols; s++ {
		out[s] = PowMod(inv2, uint64(g.SymbolOffset(s)), m)
	}
	return out, nil
}

// SignedMod maps a signed delta to its canonical positive residue mod m.
func SignedMod(d int64, m uint64) uint64 {
	if d >= 0 {
		return uint64(d) % m
	}
	r := uint64(-d) % m
	if r == 0 {
		return 0
	}
	return m - r
}

// SymbolErrorRemainder returns the remainder produced by changing the
// value of symbol s by the signed delta d: (d * 2^offset) mod m.
func SymbolErrorRemainder(d int64, s int, m uint64, g Geometry) uint64 {
	pow := PowMod(2, uint64(g.SymbolOffset(s)), m)
	return MulMod(SignedMod(d, m), pow, m)
}

// CheckMultiplier implements Algorithm 1 of the paper. It reports whether
// multiplier m defines a Polymorphic ECC instance for geometry g — every
// symbol-error (both bit-flip directions, i.e. every signed nonzero delta
// that fits the symbol) must map to a distinct remainder *within its
// symbol*, so that Eq. 2 recovers the delta unambiguously once the symbol
// is fixed. Aliasing of remainders *across* symbols is the polymorphism
// the code exploits and is permitted.
//
// On success it returns the aliasing degree of every remainder: the number
// of (symbol, delta) pairs mapping to it.
//
// This is the strict reading of Algorithm 1's line 10 and yields 511 as
// the smallest 8-bit-symbol multiplier, matching §V-A of the paper. The
// 16-bit-symbol configuration of Table IV (M=131049 < 2^17-1) tolerates
// remainders with two candidates inside one symbol, arbitrated by the
// MAC; use CheckMultiplierRelaxed for that regime.
func CheckMultiplier(m uint64, g Geometry) (bool, map[uint64]int) {
	return checkMultiplier(m, g, true)
}

// CheckMultiplierRelaxed is CheckMultiplier with the admissibility
// condition weakened to recoverability: every signed symbol delta must be
// derivable from its remainder through one of the two branches of Eq. 2
// (d = e or d = e-M). Remainders may then alias to two deltas within one
// symbol — both become candidates and the MAC check arbitrates. The
// paper's 16-bit-symbol configuration (M=131049, SSC max aliasing 11 in
// Table IV) operates in this regime.
func CheckMultiplierRelaxed(m uint64, g Geometry) (bool, map[uint64]int) {
	return checkMultiplier(m, g, false)
}

func checkMultiplier(m uint64, g Geometry, strict bool) (bool, map[uint64]int) {
	if !Admissible(m, g, !strict) {
		return false, nil
	}
	maxDelta := int64(1)<<uint(g.SymbolBits) - 1
	degrees := make(map[uint64]int)
	for s := 0; s < g.NumSymbols; s++ {
		pow := PowMod(2, uint64(g.SymbolOffset(s)), m)
		for e := int64(1); e <= maxDelta; e++ {
			// remP ≠ 0: pow is invertible mod the odd m, and e < m.
			remP := MulMod(uint64(e), pow, m)
			degrees[remP]++
			degrees[m-remP]++
		}
	}
	return true, degrees
}

// Admissible reports CheckMultiplier's verdict (CheckMultiplierRelaxed's
// when relaxed) without building the aliasing-degree map. Symbol s maps
// delta ±e to ±e·2^offset mod m; for odd m, 2^offset is invertible, so
// the symbol's remainders are distinct exactly when the residues ±e
// (1 ≤ e ≤ maxDelta) are, the same condition for every symbol:
//
//   - relaxed: every delta is recoverable through one branch of Eq. 2
//     once m > maxDelta (otherwise two positive deltas collide mod m);
//   - strict (line 10 of Algorithm 1, within-symbol uniqueness): e and
//     m-e' stay apart for all e, e' ≤ maxDelta once m > 2·maxDelta,
//     which is 511 for 8-bit symbols (§V-A) and 2^17-1 for 16-bit ones.
func Admissible(m uint64, g Geometry, relaxed bool) bool {
	if g.Validate() != nil || m < 2 || m%2 == 0 {
		return false
	}
	maxDelta := uint64(1)<<uint(g.SymbolBits) - 1
	if relaxed {
		return m > maxDelta
	}
	return m > 2*maxDelta
}

// AliasStats summarizes an aliasing-degree map (Table III / Table IV /
// Figure 7 of the paper). Statistics are computed over the remainders
// that have at least one mapped error.
type AliasStats struct {
	Remainders int         // number of distinct nonzero remainders in use
	Errors     int         // total (symbol, delta) pairs
	Min, Max   int         // extreme aliasing degrees
	Avg, Std   float64     // mean and population standard deviation
	Histogram  map[int]int // degree -> number of remainders with it
}

// Stats computes AliasStats for a degree map.
func Stats(degrees map[uint64]int) AliasStats {
	st := AliasStats{Histogram: make(map[int]int)}
	if len(degrees) == 0 {
		return st
	}
	st.Min = math.MaxInt
	var sum, sumSq float64
	for _, d := range degrees {
		st.Remainders++
		st.Errors += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		st.Histogram[d]++
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	n := float64(st.Remainders)
	st.Avg = sum / n
	variance := sumSq/n - st.Avg*st.Avg
	if variance < 0 {
		variance = 0
	}
	st.Std = math.Sqrt(variance)
	return st
}

// DegreesOfInts builds an aliasing-degree map from an arbitrary list of
// error integers expressed as signed residues mod m (used for the
// multi-symbol fault models whose errors are enumerated elsewhere).
// Zero remainders are tallied under key 0.
func DegreesOfInts(rems []uint64) map[uint64]int {
	degrees := make(map[uint64]int)
	for _, r := range rems {
		degrees[r]++
	}
	return degrees
}

// Candidate is a probable error: the value of symbol Symbol changed by
// the signed Delta. It corresponds to one sub-entry of a P_ENTRY in the
// paper's Figure 9(b).
type Candidate struct {
	Symbol int
	Delta  int64
}

// SymbolCandidates evaluates Eq. 2 of the paper for every symbol: given a
// nonzero remainder rem, it returns the at-most-one candidate delta per
// symbol, i.e. d with d*2^offset ≡ rem (mod m) and |d| < 2^SymbolBits.
// inv must be the Pow2Inverses table for (m, g). The result is ordered by
// symbol position.
func SymbolCandidates(rem, m uint64, g Geometry, inv []uint64) []Candidate {
	return SymbolCandidatesInto(nil, rem, m, g, inv)
}

// SymbolCandidatesInto is SymbolCandidates appending into dst, so hot
// paths can reuse one buffer across calls (pass dst[:0]) instead of
// allocating a fresh slice per remainder.
func SymbolCandidatesInto(dst []Candidate, rem, m uint64, g Geometry, inv []uint64) []Candidate {
	if rem == 0 {
		return dst
	}
	maxDelta := int64(1)<<uint(g.SymbolBits) - 1
	out := dst
	for s := 0; s < g.NumSymbols; s++ {
		e := MulMod(rem, inv[s], m) // e in [0, m)
		if e == 0 {
			continue // cannot happen for rem != 0 with odd m, but keep the guard
		}
		// Both branches can be valid when m < 2^(SymbolBits+1)-1 (the
		// relaxed admissibility regime of the 16-bit configuration); the
		// MAC check arbitrates between them.
		if int64(e) <= maxDelta {
			out = append(out, Candidate{Symbol: s, Delta: int64(e)})
		}
		if int64(m-e) <= maxDelta {
			out = append(out, Candidate{Symbol: s, Delta: -int64(m - e)})
		}
	}
	return out
}

// SolvePair evaluates Eq. 3 of the paper: given remainder rem and a known
// delta dB in symbol sB, it returns the delta dA in symbol sA satisfying
// dA*2^LA + dB*2^LB ≡ rem (mod m), reduced into the signed symbol range,
// and whether such an in-range dA exists.
func SolvePair(rem uint64, sA, sB int, dB int64, m uint64, g Geometry, inv []uint64) (int64, bool) {
	powB := PowMod(2, uint64(g.SymbolOffset(sB)), m)
	partial := MulMod(SignedMod(dB, m), powB, m)
	residual := rem + m - partial
	if residual >= m {
		residual -= m
	}
	if residual == 0 {
		return 0, false // dA would be zero: not a two-symbol error
	}
	e := MulMod(residual, inv[sA], m)
	maxDelta := int64(1)<<uint(g.SymbolBits) - 1
	switch {
	case int64(e) <= maxDelta:
		return int64(e), true
	case int64(m-e) <= maxDelta:
		return -int64(m - e), true
	}
	return 0, false
}

// MACBits returns how many MAC bits per codeword a multiplier leaves
// free, given the geometry and the data bits the codeword must carry:
// codewordBits - dataBits - bitlen(m). Negative means m does not fit.
func MACBits(m uint64, g Geometry, dataBits int) int {
	return g.CodewordBits() - dataBits - bits.Len64(m)
}

// SearchResult describes one admissible multiplier found by Search.
type SearchResult struct {
	M       uint64
	Bits    int // redundancy bits = bitlen(M)
	MACBits int // free MAC bits per codeword for the given data width
	Stats   AliasStats
}

// Search enumerates odd multipliers whose redundancy fits within
// [minBits, maxBits] bits and that define a code for g (Algorithm 1),
// returning per-multiplier aliasing statistics. dataBits is the data
// payload per codeword (64 for the 8-bit-symbol DDR5 configuration).
// This powers the Figure 7 trade-off study.
func Search(minBits, maxBits int, g Geometry, dataBits int) []SearchResult {
	var out []SearchResult
	for nbits := minBits; nbits <= maxBits; nbits++ {
		lo := uint64(1) << uint(nbits-1)
		hi := uint64(1)<<uint(nbits) - 1
		for m := lo | 1; m <= hi; m += 2 {
			ok, degrees := CheckMultiplier(m, g)
			if !ok {
				continue
			}
			out = append(out, SearchResult{
				M:       m,
				Bits:    nbits,
				MACBits: MACBits(m, g, dataBits),
				Stats:   Stats(degrees),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].M < out[j].M })
	return out
}

// SmallestMultiplier returns the smallest odd multiplier defining a code
// for g (strict admissibility), or 0 if none exists below limit. The
// paper notes this is 511 for 8-bit symbols.
//
// Any m < 2^(S+1)-1 fails the within-symbol uniqueness check — two
// opposite-direction deltas e1, e2 with e1+e2 = m collide — so the search
// starts there.
func SmallestMultiplier(g Geometry, limit uint64) uint64 {
	start := uint64(1)<<uint(g.SymbolBits+1) - 1
	for m := start; m < limit; m += 2 {
		if ok, _ := CheckMultiplier(m, g); ok {
			return m
		}
	}
	return 0
}
