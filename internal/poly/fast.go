package poly

import (
	"cmp"
	"slices"
	"unsafe"

	"polyecc/internal/wideint"
)

// runs is the one layout of every remainder-indexed table in this
// package, fast or hint: run i is items[idx[i]:idx[i+1]], one exact-size
// slice for the whole table. An unbuilt table (the zero value) has
// empty runs.
type runs[T any] struct {
	idx   []uint32 // len n+1 prefix offsets into items
	items []T
}

// at returns run i.
func (r *runs[T]) at(i uint64) []T {
	if r.idx == nil {
		return nil
	}
	return r.items[r.idx[i]:r.idx[i+1]]
}

// bytes is the table's resident footprint.
func (r *runs[T]) bytes() int {
	var item T
	return len(r.idx)*int(unsafe.Sizeof(uint32(0))) + len(r.items)*int(unsafe.Sizeof(item))
}

// buildRuns files every item enum emits under its key in [0, n) in two
// passes — count, then fill — so each run keeps emission order and the
// table is allocated once, at its final size.
func buildRuns[T any](n uint64, enum func(emit func(key uint64, v T))) runs[T] {
	r := runs[T]{idx: make([]uint32, n+1)}
	// Count run i into idx[i+2] and prefix-sum, leaving idx[i+1] at run
	// i's start; the fill then uses idx[i+1] as i's cursor, which ends at
	// i's end — the next run's start.
	total := 0
	enum(func(key uint64, _ T) {
		total++
		if key+2 <= n {
			r.idx[key+2]++
		}
	})
	for i := uint64(2); i <= n; i++ {
		r.idx[i] += r.idx[i-1]
	}
	r.items = make([]T, total)
	enum(func(key uint64, v T) {
		r.items[r.idx[key+1]] = v
		r.idx[key+1]++
	})
	return r
}

// fastTables are the candidate-free correction tables: Eq. 2 and the
// pair enumerations of Eq. 3 inverted at New time into per-remainder
// candidate runs, already REORDERER-sorted, so the decode-time
// generators in candidates.go become table walks. Only the PRUNER's
// word-dependent half (overflow and model-consistency filtering, which
// needs the actual codeword) runs at decode time; filtering a
// cost-sorted run preserves its order, so the emitted candidate
// sequence — and therefore trial order, iteration counts, and every
// golden vector — is bit-identical to the enumeration.
//
// The tables exist only for the small-M strict codes (m511/m1021/m2005
// and their variants): the build is gated on a non-relaxed multiplier
// with 8-bit symbols, M ≤ 2^16, and M > 2·maxSym (which guarantees at
// most one Eq. 2 candidate per (remainder, symbol), making sscAt a
// direct lookup, and that Eq. 3 returns exactly the enumerated first
// delta, so pairs are stored pre-solved). They are all such a code
// holds: it keeps no hint tables. Large-M (m131049) and the
// DisablePrune/NaturalOrder ablations decode by enumeration over hint
// tables instead, which also remains the differential oracle
// (Code.WithEnumeratedCandidates).
type fastTables struct {
	syms  int
	pairs int // syms*(syms-1)/2 ordered (a<b) device pairs

	ssc   runs[fastCand] // per-rem Eq. 2 singles, cost-sorted within a run
	sscAt []int32        // [rem*syms+sym] the unique delta, 0 = none
	// dec holds the cross-symbol DEC pairs per rem; bfbf the BF+BF pairs
	// per (rem, device-pair rank), so the corrector's per-device-pair
	// hypothesis reads one contiguous cost-sorted run. Each is unbuilt
	// when its model is not configured.
	dec, bfbf runs[fastCand]
}

// fastCand is one precomputed candidate: a corr1 (n==1, dA on sA) or a
// corr2 (n==2). Deltas fit int16 because the build is gated on 8-bit
// symbols (|delta| ≤ 255).
type fastCand struct {
	dA, dB int16
	sA, sB int8
	n      int8
}

func (fc fastCand) correction() correction {
	if fc.n == 1 {
		return corr1(int(fc.sA), int64(fc.dA))
	}
	return corr2(int(fc.sA), int64(fc.dA), int(fc.sB), int64(fc.dB))
}

// pairCand is the pre-solved candidate of an enumerated pair error.
func pairCand(sA, sB int, dA, dB int64) fastCand {
	return fastCand{dA: int16(dA), dB: int16(dB), sA: int8(sA), sB: int8(sB), n: 2}
}

// pairRank maps an ordered device pair a<b to its index in the a-major
// enumeration the pair enumerators use.
func pairRank(a, b, n int) int {
	return a*(2*n-a-1)/2 + (b - a - 1)
}

func (fc fastCand) cost() int64 {
	c := int64(fc.n) << 32
	for _, d := range []int16{fc.dA, fc.dB}[:fc.n] {
		if d >= 0 {
			c += int64(d)
		} else {
			c -= int64(d)
		}
	}
	return c
}

// costSorted cost-sorts every run in place, stably, so emission order
// breaks ties exactly like finishCandidates.
func costSorted(r runs[fastCand]) runs[fastCand] {
	for i := 1; i < len(r.idx); i++ {
		slices.SortStableFunc(r.items[r.idx[i-1]:r.idx[i]], func(a, b fastCand) int { return cmp.Compare(a.cost(), b.cost()) })
	}
	return r
}

// buildFastTables inverts the candidate generators over every remainder
// value. Caller has validated the gating conditions (see fastTables).
func (c *Code) buildFastTables() *fastTables {
	M := c.cfg.M
	syms := c.cfg.Geometry.NumSymbols
	f := &fastTables{
		syms:  syms,
		pairs: syms * (syms - 1) / 2,
		sscAt: make([]int32, M*uint64(syms)),
	}
	maxDelta := c.maxSym()

	// Eq. 2 inversion; with M > 2·maxSym at most one branch fires per
	// (rem, sym).
	for rem := uint64(1); rem < M; rem++ {
		for s := 0; s < syms; s++ {
			e := c.tab.MulMod(rem, c.tab.Inv[s])
			switch {
			case int64(e) <= maxDelta:
				f.sscAt[rem*uint64(syms)+uint64(s)] = int32(e)
			case int64(M-e) <= maxDelta:
				f.sscAt[rem*uint64(syms)+uint64(s)] = -int32(M - e)
			}
		}
	}
	// The singles are emitted symbol-major per remainder, the raw order
	// of SymbolCandidatesInto.
	f.ssc = costSorted(buildRuns(M, func(emit func(uint64, fastCand)) {
		for rem := uint64(1); rem < M; rem++ {
			for s, d := range f.sscAt[rem*uint64(syms) : (rem+1)*uint64(syms)] {
				if d != 0 {
					emit(rem, fastCand{dA: int16(d), sA: int8(s), n: 1})
				}
			}
		}
	}))

	// Pairs come straight from the enumerators, first delta included:
	// on a strict code Eq. 3 solves every enumerated pair to exactly
	// that delta, so there is nothing to solve and nothing to drop.
	if enum := c.pairEnum(ModelDEC); enum != nil {
		f.dec = costSorted(buildRuns(M, func(emit func(uint64, fastCand)) {
			enum(func(rem uint64, sA, sB int, dA, dB int64) {
				emit(rem, pairCand(sA, sB, dA, dB))
			})
		}))
	}
	if enum := c.pairEnum(ModelBFBF); enum != nil {
		pairs := uint64(f.pairs)
		f.bfbf = costSorted(buildRuns(M*pairs, func(emit func(uint64, fastCand)) {
			enum(func(rem uint64, sA, sB int, dA, dB int64) {
				emit(rem*pairs+uint64(pairRank(sA, sB, syms)), pairCand(sA, sB, dA, dB))
			})
		}))
	}
	return f
}

// bytes is the tables' resident footprint.
func (f *fastTables) bytes() int {
	return f.ssc.bytes() + len(f.sscAt)*int(unsafe.Sizeof(int32(0))) + f.dec.bytes() + f.bfbf.bytes()
}

// HintTableBytes returns the resident footprint in bytes of every
// remainder-indexed table the code holds: the fast tables of a small-M
// strict code, or the DEC and BF+BF hint tables of a code that decodes
// by enumeration. It is the Table VI-style storage cost of its
// correction, and the figure the memory budget is held to.
func (c *Code) HintTableBytes() int {
	n := c.decHints.bytes() + c.bfbfHints.bytes()
	if c.fast != nil {
		n += c.fast.bytes()
	}
	return n
}

// WithEnumeratedCandidates returns a shallow copy that decodes through
// the runtime candidate enumeration and full-line MAC recomputation —
// no fast tables, no incremental MAC. A fast code's copy builds the hint
// tables the enumeration reads (a few milliseconds); a code that already
// enumerates shares its own. It is the differential oracle the fast path
// is held bit-identical to (the fastpath smoke and fuzz cross-checks),
// and the honest cost model for a hardware implementation with hint
// ROMs only.
func (c *Code) WithEnumeratedCandidates() *Code {
	c2 := *c
	if c2.fast != nil {
		c2.fast = nil
		c2.buildHintTables()
	}
	c2.macInc = nil
	return &c2
}

// --- decode-time table walks ------------------------------------------------

// fastSingles appends remainder rem's precomputed Eq. 2 run, pruned for
// the word under the given model. The run is cost-sorted and pruning is
// a filter, so the output order matches finishCandidates on the
// enumeration's raw list exactly.
func (c *Code) fastSingles(dst []correction, w wideint.U192, rem uint64, model FaultModel) []correction {
	for _, fc := range c.fast.ssc.at(rem) {
		co := corr1(int(fc.sA), int64(fc.dA))
		if c.prune(w, co, model) {
			co.valid = true
			dst = append(dst, co)
		}
	}
	return dst
}

// fastSingleAt is the (rem, sym) direct lookup: the unique Eq. 2 delta
// or 0.
func (c *Code) fastSingleAt(rem uint64, sym int) int32 {
	return c.fast.sscAt[rem*uint64(c.fast.syms)+uint64(sym)]
}

// fastDECPairs appends the pre-solved, cost-sorted DEC pair run for
// rem, pruned for the word.
func (c *Code) fastDECPairs(dst []correction, w wideint.U192, rem uint64) []correction {
	for _, fc := range c.fast.dec.at(rem) {
		co := fc.correction()
		if c.prune(w, co, ModelDEC) {
			co.valid = true
			dst = append(dst, co)
		}
	}
	return dst
}

// fastBFBFAt appends the hypothesized device pair's contiguous
// cost-sorted run for rem, pruned for the word.
func (c *Code) fastBFBFAt(dst []correction, w wideint.U192, rem uint64, devA, devB int) []correction {
	f := c.fast
	for _, fc := range f.bfbf.at(rem*uint64(f.pairs) + uint64(pairRank(devA, devB, f.syms))) {
		co := fc.correction()
		if c.prune(w, co, ModelBFBF) {
			co.valid = true
			dst = append(dst, co)
		}
	}
	return dst
}
