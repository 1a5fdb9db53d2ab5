package poly

import (
	"cmp"
	"slices"

	"polyecc/internal/wideint"
)

// fastTables are the candidate-free correction tables: Eq. 2 and the
// pair-hint expansion of Eq. 3 inverted at New time into per-remainder
// candidate lists, already REORDERER-sorted, so the decode-time
// generators in candidates.go become table walks. Only the PRUNER's
// word-dependent half (overflow and model-consistency filtering, which
// needs the actual codeword) runs at decode time; filtering a
// cost-sorted list preserves its order, so the emitted candidate
// sequence — and therefore trial order, iteration counts, and every
// golden vector — is bit-identical to the legacy enumeration.
//
// The tables exist only for the small-M strict codes (m511/m1021/m2005
// and their variants): the build is gated on a non-relaxed multiplier
// with 8-bit symbols, M ≤ 2^16, and M > 2·maxSym (which guarantees at
// most one Eq. 2 candidate per (remainder, symbol), making sscAt a
// direct lookup). Large-M (m131049) and the DisablePrune/NaturalOrder
// ablations fall back to the legacy enumeration, which also remains the
// differential oracle (Code.WithEnumeratedCandidates).
type fastTables struct {
	syms  int
	pairs int // syms*(syms-1)/2 ordered (a<b) device pairs

	// Single-symbol (Eq. 2) inversion.
	sscCands []fastCand // per-rem candidate runs, cost-sorted within a run
	sscIdx   []uint32   // len M+1 prefix offsets into sscCands
	sscAt    []int32    // [rem*syms+sym] the unique delta, 0 = none

	// Cross-symbol DEC pairs: the hint buckets with Eq. 3 pre-solved.
	decCands []fastCand
	decIdx   []uint32 // len M+1; nil when ModelDEC has no hint table

	// BF+BF pairs grouped (rem-major, pair-rank-minor) so the corrector's
	// per-device-pair hypothesis reads one contiguous cost-sorted run.
	bfbfCands []fastCand
	bfbfIdx   []uint32 // len M*pairs+1; nil when ModelBFBF has no hint table

	bytes int // total table footprint, for the memory-budget report
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

// pairRank maps an ordered device pair a<b to its index in the a-major
// enumeration the hint builders use.
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

// sortRun cost-sorts one per-remainder run in place, stably, so raw
// generation order breaks ties exactly like finishCandidates.
func sortRun(run []fastCand) {
	slices.SortStableFunc(run, func(a, b fastCand) int { return cmp.Compare(a.cost(), b.cost()) })
}

// buildFastTables inverts the candidate generators over every remainder
// value. Caller has validated the gating conditions (see fastTables).
func (c *Code) buildFastTables() *fastTables {
	M := c.cfg.M
	syms := c.cfg.Geometry.NumSymbols
	f := &fastTables{
		syms:   syms,
		pairs:  syms * (syms - 1) / 2,
		sscIdx: make([]uint32, M+1),
		sscAt:  make([]int32, M*uint64(syms)),
	}
	maxDelta := c.maxSym()

	// Eq. 2 inversion: the raw generation order is symbol-major with the
	// +e branch before the -(M-e) branch, matching SymbolCandidatesInto;
	// with M > 2·maxSym at most one branch fires per (rem, sym).
	for rem := uint64(1); rem < M; rem++ {
		start := len(f.sscCands)
		for s := 0; s < syms; s++ {
			e := c.tab.MulMod(rem, c.tab.Inv[s])
			if e == 0 {
				continue
			}
			var d int64
			switch {
			case int64(e) <= maxDelta:
				d = int64(e)
			case int64(M-e) <= maxDelta:
				d = -int64(M - e)
			default:
				continue
			}
			f.sscCands = append(f.sscCands, fastCand{dA: int16(d), sA: int8(s), n: 1})
			f.sscAt[rem*uint64(syms)+uint64(s)] = int32(d)
		}
		sortRun(f.sscCands[start:])
		f.sscIdx[rem+1] = uint32(len(f.sscCands))
	}

	// DEC cross-symbol pairs: walk each remainder's hint bucket in its
	// stored (enumeration) order, pre-solving Eq. 3.
	if hints := c.decHints; hints != nil {
		f.decIdx = make([]uint32, M+1)
		for rem := uint64(0); rem < M; rem++ {
			start := len(f.decCands)
			for _, h := range hints.bucket(rem) {
				dA, ok := c.tab.SolvePair(rem, int(h.symA), int(h.symB), int64(h.deltaB))
				if !ok {
					continue
				}
				f.decCands = append(f.decCands, fastCand{
					dA: int16(dA), dB: int16(h.deltaB), sA: h.symA, sB: h.symB, n: 2,
				})
			}
			sortRun(f.decCands[start:])
			f.decIdx[rem+1] = uint32(len(f.decCands))
		}
	}

	// BF+BF pairs, additionally grouped by device-pair rank within each
	// remainder so bfbfCandidatesAt reads one contiguous run. The hint
	// buckets are pair-major (the builder enumerates sA<sB outermost and
	// dedupe preserves order), so rank-major grouping keeps the bucket's
	// raw order for the whole-remainder walk too.
	if hints := c.bfbfHints; hints != nil {
		f.bfbfIdx = make([]uint32, M*uint64(f.pairs)+1)
		byRank := make([][]fastCand, f.pairs)
		for rem := uint64(0); rem < M; rem++ {
			for rk := range byRank {
				byRank[rk] = byRank[rk][:0]
			}
			for _, h := range hints.bucket(rem) {
				dA, ok := c.tab.SolvePair(rem, int(h.symA), int(h.symB), int64(h.deltaB))
				if !ok {
					continue
				}
				rk := pairRank(int(h.symA), int(h.symB), syms)
				byRank[rk] = append(byRank[rk], fastCand{
					dA: int16(dA), dB: int16(h.deltaB), sA: h.symA, sB: h.symB, n: 2,
				})
			}
			for rk := 0; rk < f.pairs; rk++ {
				start := len(f.bfbfCands)
				f.bfbfCands = append(f.bfbfCands, byRank[rk]...)
				sortRun(f.bfbfCands[start:])
				f.bfbfIdx[rem*uint64(f.pairs)+uint64(rk)+1] = uint32(len(f.bfbfCands))
			}
		}
	}

	const candSize, idxSize, atSize = 8, 4, 4
	f.bytes = len(f.sscCands)*candSize + len(f.sscIdx)*idxSize + len(f.sscAt)*atSize +
		len(f.decCands)*candSize + len(f.decIdx)*idxSize +
		len(f.bfbfCands)*candSize + len(f.bfbfIdx)*idxSize
	return f
}

// HintTableBytes returns the resident footprint in bytes of the
// remainder→candidate fast tables built at New — the Table VI-style
// storage cost of candidate-free correction. It is 0 when the code runs
// on the legacy enumeration (large or relaxed M, or the
// DisablePrune/NaturalOrder ablations).
func (c *Code) HintTableBytes() int {
	if c.fast == nil {
		return 0
	}
	return c.fast.bytes
}

// WithEnumeratedCandidates returns a shallow copy that decodes through
// the legacy runtime candidate enumeration and full-line MAC
// recomputation — no fast tables, no incremental MAC. It is the
// differential oracle the fast path is held bit-identical to (the
// fastpath smoke and fuzz cross-checks), and the honest cost model for
// a hardware implementation without hint ROMs.
func (c *Code) WithEnumeratedCandidates() *Code {
	c2 := *c
	c2.fast = nil
	c2.macInc = nil
	return &c2
}

// --- decode-time table walks ------------------------------------------------

// fastSingles appends remainder rem's precomputed Eq. 2 run, pruned for
// the word under the given model. The run is cost-sorted and pruning is
// a filter, so the output order matches finishCandidates on the legacy
// raw list exactly.
func (c *Code) fastSingles(dst []correction, w wideint.U192, rem uint64, model FaultModel) []correction {
	f := c.fast
	for _, fc := range f.sscCands[f.sscIdx[rem]:f.sscIdx[rem+1]] {
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
	f := c.fast
	if f.decIdx == nil {
		return dst
	}
	for _, fc := range f.decCands[f.decIdx[rem]:f.decIdx[rem+1]] {
		co := fc.correction()
		if c.prune(w, co, ModelDEC) {
			co.valid = true
			dst = append(dst, co)
		}
	}
	return dst
}

// fastBFBFGather appends every BF+BF pair candidate for rem in the hint
// bucket's raw order (rank-major runs, each stably cost-sorted — ties
// keep generation order, so a subsequent stable cost sort reproduces
// the legacy ordering exactly). Entries are raw: the caller finishes
// them through finishCandidates like the legacy path.
func (c *Code) fastBFBFGather(dst []correction, rem uint64) []correction {
	f := c.fast
	if f.bfbfIdx == nil {
		return dst
	}
	lo := f.bfbfIdx[rem*uint64(f.pairs)]
	hi := f.bfbfIdx[(rem+1)*uint64(f.pairs)]
	for _, fc := range f.bfbfCands[lo:hi] {
		dst = append(dst, fc.correction())
	}
	return dst
}

// fastBFBFAt appends the hypothesized device pair's contiguous
// cost-sorted run for rem, pruned for the word.
func (c *Code) fastBFBFAt(dst []correction, w wideint.U192, rem uint64, devA, devB int) []correction {
	f := c.fast
	if f.bfbfIdx == nil {
		return dst
	}
	base := rem*uint64(f.pairs) + uint64(pairRank(devA, devB, f.syms))
	for _, fc := range f.bfbfCands[f.bfbfIdx[base]:f.bfbfIdx[base+1]] {
		co := fc.correction()
		if c.prune(w, co, ModelBFBF) {
			co.valid = true
			dst = append(dst, co)
		}
	}
	return dst
}
