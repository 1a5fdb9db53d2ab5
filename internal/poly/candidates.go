package poly

import (
	"math/bits"
	"slices"
	"sort"

	"polyecc/internal/residue"
	"polyecc/internal/wideint"
)

// symDelta is one symbol-value adjustment: the value of symbol Sym is
// believed to have increased by Delta in memory, so correction subtracts
// Delta.
type symDelta struct {
	Sym   int
	Delta int64
}

// correction is one error candidate: a set of symbol adjustments whose
// combined error integer is congruent to the observed remainder. It is a
// decoded P_ENTRY sub-entry (Figure 9(b)). Every fault model touches at
// most two symbols per codeword, so the deltas live inline — candidate
// generation allocates nothing.
type correction struct {
	deltas [2]symDelta
	n      int8
	valid  bool // survives the PRUNER for the word it was generated for
}

// corr1 and corr2 build single- and double-symbol candidates.
func corr1(sym int, delta int64) correction {
	return correction{deltas: [2]symDelta{{Sym: sym, Delta: delta}}, n: 1}
}

func corr2(symA int, deltaA int64, symB int, deltaB int64) correction {
	return correction{deltas: [2]symDelta{{Sym: symA, Delta: deltaA}, {Sym: symB, Delta: deltaB}}, n: 2}
}

// cost orders corrections for the REORDERER: fewer touched symbols and
// smaller magnitudes first.
func (co correction) cost() int64 {
	c := int64(co.n) << 32
	for _, d := range co.deltas[:co.n] {
		if d.Delta >= 0 {
			c += d.Delta
		} else {
			c -= d.Delta
		}
	}
	return c
}

// getSym8/putSym8 are the byte-aligned symbol accessors of the
// 8-bit-symbol layout (codewords ≤ 128 bits: symbols 0-7 in W0, the rest
// in W1) — one shift and mask instead of the generic U192 field walk.
func getSym8(w wideint.U192, s int) uint64 {
	if s < 8 {
		return w.W0 >> uint(8*s) & 0xff
	}
	return w.W1 >> uint(8*(s-8)) & 0xff
}

func putSym8(w wideint.U192, s int, v uint64) wideint.U192 {
	if s < 8 {
		sh := uint(8 * s)
		w.W0 = w.W0&^(uint64(0xff)<<sh) | v<<sh
	} else {
		sh := uint(8 * (s - 8))
		w.W1 = w.W1&^(uint64(0xff)<<sh) | v<<sh
	}
	return w
}

// applyCorrection subtracts a candidate error from a codeword. The bool
// reports whether every symbol stayed in range (no underflow/overflow).
func (c *Code) applyCorrection(w wideint.U192, co correction) (wideint.U192, bool) {
	if c.fastSym8 {
		for _, sd := range co.deltas[:co.n] {
			nv := int64(getSym8(w, sd.Sym)) - sd.Delta
			if nv < 0 || nv > 255 {
				return w, false
			}
			w = putSym8(w, sd.Sym, uint64(nv))
		}
		return w, true
	}
	S := c.cfg.Geometry.SymbolBits
	for _, sd := range co.deltas[:co.n] {
		off := sd.Sym * S
		v := int64(w.Field(off, S))
		nv := v - sd.Delta
		if nv < 0 || nv > c.maxSym() {
			return w, false
		}
		w = w.WithField(off, S, uint64(nv))
	}
	return w, true
}

// flipsOf returns the XOR pattern a correction implies on one symbol of a
// word, for fault-model consistency checks.
func (c *Code) flipsOf(w wideint.U192, sd symDelta) (uint64, bool) {
	if c.fastSym8 {
		v := int64(getSym8(w, sd.Sym))
		nv := v - sd.Delta
		if nv < 0 || nv > 255 {
			return 0, false
		}
		return uint64(v ^ nv), true
	}
	S := c.cfg.Geometry.SymbolBits
	off := sd.Sym * S
	v := int64(w.Field(off, S))
	nv := v - sd.Delta
	if nv < 0 || nv > c.maxSym() {
		return 0, false
	}
	return uint64(v ^ nv), true
}

// prune marks a correction valid if applying it to the word keeps every
// symbol in range and the implied bit-flip pattern is consistent with the
// fault model. This is the PRUNER & REORDERER's pruning half (§VI-C): an
// aliased candidate that would underflow or overflow a symbol, or whose
// flips could not have been produced by the model, cannot be the error.
func (c *Code) prune(w wideint.U192, co correction, model FaultModel) bool {
	for _, sd := range co.deltas[:co.n] {
		flips, ok := c.flipsOf(w, sd)
		if !ok {
			return false
		}
		switch model {
		case ModelDEC:
			want := 1
			if co.n == 1 {
				want = 2 // both flipped bits inside one symbol
			}
			if bits.OnesCount64(flips) != want {
				return false
			}
		case ModelBFBF:
			// Each bounded fault stays inside one beat-aligned nibble.
			if flips == 0 || (flips&0xf != flips && flips&0xf0 != flips) {
				return false
			}
		}
	}
	return true
}

// finishCandidates applies pruning policy and ordering to a raw list, in
// place. The sort is a hand-rolled stable insertion sort rather than
// sort.SliceStable: candidate lists are short, the ordering is identical,
// and the reflection-based sort allocates on every call.
func (c *Code) finishCandidates(w wideint.U192, raw []correction, model FaultModel) []correction {
	out := raw[:0]
	for _, co := range raw {
		co.valid = c.prune(w, co, model)
		if co.valid || c.cfg.DisablePrune {
			out = append(out, co)
		}
	}
	if !c.cfg.NaturalOrder {
		less := func(a, b *correction) bool {
			if a.valid != b.valid {
				return a.valid
			}
			return a.cost() < b.cost()
		}
		for i := 1; i < len(out); i++ {
			co := out[i]
			j := i
			for j > 0 && less(&co, &out[j-1]) {
				out[j] = out[j-1]
				j--
			}
			out[j] = co
		}
	}
	return out
}

// sortCandidatesLegacy is finishCandidates's original sort.SliceStable
// ordering, kept (test-only via the golden vectors) as the executable
// definition the insertion sort above must match.
func (c *Code) sortCandidatesLegacy(out []correction) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].valid != out[j].valid {
			return out[i].valid
		}
		return out[i].cost() < out[j].cost()
	})
}

// symbolCandidates evaluates Eq. 2 into the scratch buffer. Within one
// decode the same remainder is priced once per hypothesized symbol
// (ChipKill walks all ten devices over one corrupted word), so the buffer
// doubles as a one-entry cache keyed by remainder; decodeLine invalidates
// it on entry.
func (c *Code) symbolCandidates(s *Scratch, rem uint64) []residue.Candidate {
	if s.symCacheOK && s.symCacheRem == rem {
		return s.sym
	}
	s.sym = c.tab.SymbolCandidatesInto(s.sym[:0], rem)
	s.symCacheRem, s.symCacheOK = rem, true
	return s.sym
}

// sscCandidates derives single-symbol candidates from Eq. 2 at runtime —
// no table needed (§V-D). Like every generator below it appends into dst
// (a per-dimension scratch buffer) and returns the finished list.
func (c *Code) sscCandidates(dst []correction, s *Scratch, w wideint.U192, rem uint64) []correction {
	if c.fast != nil {
		return c.fastSingles(dst, w, rem, ModelSSC)
	}
	raw := dst
	for _, cand := range c.symbolCandidates(s, rem) {
		raw = append(raw, corr1(cand.Symbol, cand.Delta))
	}
	return c.finishCandidates(w, raw, ModelSSC)
}

// sscCandidatesAt restricts Eq. 2 to one hypothesized symbol (the
// ChipKill hypothesis: a known failing device).
func (c *Code) sscCandidatesAt(dst []correction, s *Scratch, w wideint.U192, rem uint64, sym int) []correction {
	if c.fast != nil {
		if d := c.fastSingleAt(rem, sym); d != 0 {
			co := corr1(sym, int64(d))
			if c.prune(w, co, ModelChipKill) {
				co.valid = true
				dst = append(dst, co)
			}
		}
		return dst
	}
	raw := dst
	for _, cand := range c.symbolCandidates(s, rem) {
		if cand.Symbol == sym {
			raw = append(raw, corr1(cand.Symbol, cand.Delta))
		}
	}
	return c.finishCandidates(w, raw, ModelChipKill)
}

// decCandidates reinterprets a remainder as a double-bit error: the
// same-symbol pairs come from Eq. 2 (any single-symbol candidate whose
// flip pattern has exactly two bits), the cross-symbol pairs from the DEC
// hint table plus Eq. 3.
func (c *Code) decCandidates(dst []correction, s *Scratch, w wideint.U192, rem uint64) []correction {
	if c.fast != nil {
		// Singles always cost below pairs, so the concatenation of the two
		// pruned, cost-sorted runs is the enumeration's globally-sorted list.
		dst = c.fastSingles(dst, w, rem, ModelDEC)
		return c.fastDECPairs(dst, w, rem)
	}
	raw := dst
	for _, cand := range c.symbolCandidates(s, rem) {
		raw = append(raw, corr1(cand.Symbol, cand.Delta))
	}
	raw = c.decPairs(raw, rem)
	return c.finishCandidates(w, raw, ModelDEC)
}

// decZeroCandidates is the DEC hint bucket of remainder zero, pruned:
// the pairs the zero-remainder phase (§VIII-A) tries on clean-looking
// codewords.
func (c *Code) decZeroCandidates(dst []correction, w wideint.U192) []correction {
	if c.fast != nil {
		return c.fastDECPairs(dst, w, 0)
	}
	return c.finishCandidates(w, c.decPairs(dst, 0), ModelDEC)
}

// bfbfCandidatesAt restricts the double-bounded-fault hints to one
// hypothesized device pair. The pair is a device-level event shared by
// the whole cacheline, so the corrector iterates pairs the way it
// iterates ChipKill devices.
func (c *Code) bfbfCandidatesAt(dst []correction, s *Scratch, w wideint.U192, rem uint64, devA, devB int) []correction {
	if c.fast != nil {
		// Singles sort below pairs; the two surviving singles (at most one
		// per device) order by cost with the devA-first tie-break the
		// stable enumeration sort produces.
		var singles [2]correction
		ns := 0
		for _, dev := range [2]int{devA, devB} {
			if d := c.fastSingleAt(rem, dev); d != 0 {
				co := corr1(dev, int64(d))
				if c.prune(w, co, ModelBFBF) {
					co.valid = true
					singles[ns] = co
					ns++
				}
			}
		}
		if ns == 2 && singles[1].cost() < singles[0].cost() {
			singles[0], singles[1] = singles[1], singles[0]
		}
		dst = append(dst, singles[:ns]...)
		return c.fastBFBFAt(dst, w, rem, devA, devB)
	}
	raw := dst
	for _, h := range c.bfbfHints.at(rem) {
		if int(h.symA) != devA || int(h.symB) != devB {
			continue
		}
		dA, ok := c.tab.SolvePair(rem, devA, devB, int64(h.deltaB))
		if !ok {
			continue
		}
		raw = append(raw, corr2(devA, dA, devB, int64(h.deltaB)))
	}
	// A bounded fault on one device may leave the other device's symbol
	// intact in this codeword: single-nibble candidates on either device.
	for _, cand := range c.symbolCandidates(s, rem) {
		if cand.Symbol == devA || cand.Symbol == devB {
			raw = append(raw, corr1(cand.Symbol, cand.Delta))
		}
	}
	return c.finishCandidates(w, raw, ModelBFBF)
}

// decPairs expands the stored DEC hints: each hint names the two faulty
// symbols and the second error; the first is derived with Eq. 3.
func (c *Code) decPairs(dst []correction, rem uint64) []correction {
	out := dst
	for _, h := range c.decHints.at(rem) {
		dA, ok := c.tab.SolvePair(rem, int(h.symA), int(h.symB), int64(h.deltaB))
		if !ok {
			continue
		}
		out = append(out, corr2(int(h.symA), dA, int(h.symB), int64(h.deltaB)))
	}
	return out
}

// pairEnumerator calls emit for every error of a double-symbol fault
// model — delta dA on symbol sA plus dB on sB, sA < sB — with its
// remainder, symbol pair outermost. Emission order is run order, which
// breaks cost ties in every sorted run and so fixes trial order: the
// golden vectors pin the enumerators' loop order. No two emissions share
// (rem, sA, sB, dB): that would need two of the model's deltas congruent
// mod M, and TestPairDeltasDistinctModM proves no admissible M allows it.
type pairEnumerator func(emit func(rem uint64, sA, sB int, dA, dB int64))

// pairEnum returns a configured double-symbol fault model's enumerator:
// nil for a model that is not configured or whose candidates Eq. 2
// derives alone.
func (c *Code) pairEnum(m FaultModel) pairEnumerator {
	if !slices.Contains(c.models, m) {
		return nil
	}
	switch m {
	case ModelDEC:
		return c.decHintEnum
	case ModelBFBF:
		return c.bfbfHintEnum
	}
	return nil
}

// buildHintTables builds the DEC and BF+BF hint tables of the configured
// models — the paper's stored sub-entries (sym1, sym2, err2), err1 left
// to Eq. 3 — for a code that decodes by enumeration.
func (c *Code) buildHintTables() {
	hints := func(enum pairEnumerator) runs[pairHint] {
		if enum == nil {
			return runs[pairHint]{}
		}
		return buildRuns(c.cfg.M, func(emit func(uint64, pairHint)) {
			enum(func(rem uint64, sA, sB int, _, dB int64) {
				emit(rem, pairHint{symA: int8(sA), symB: int8(sB), deltaB: int32(dB)})
			})
		})
	}
	c.decHints = hints(c.pairEnum(ModelDEC))
	c.bfbfHints = hints(c.pairEnum(ModelBFBF))
}

// deltaRemainders returns SymbolRemainder(deltas[i], s) at
// [s*len(deltas)+i], so the pair enumerators add two table entries per
// pair instead of reducing both deltas.
func (c *Code) deltaRemainders(deltas []int64) []uint64 {
	n := len(deltas)
	out := make([]uint64, c.cfg.Geometry.NumSymbols*n)
	for s := 0; s < c.cfg.Geometry.NumSymbols; s++ {
		for i, d := range deltas {
			out[s*n+i] = c.tab.SymbolRemainder(d, s)
		}
	}
	return out
}

// addMod adds two remainders mod M.
func (c *Code) addMod(a, b uint64) uint64 {
	if a += b; a >= c.cfg.M {
		a -= c.cfg.M
	}
	return a
}

// bitDeltas are the signed errors a single bit flip can put on a
// symbol: +2^t then -2^t for every bit t < 32. A symbol of S bits takes
// the first 2S.
var bitDeltas = func() []int64 {
	out := make([]int64, 0, 64)
	for t := 0; t < 32; t++ {
		out = append(out, int64(1)<<uint(t), -(int64(1) << uint(t)))
	}
	return out
}()

// decHintEnum enumerates every cross-symbol double-bit error. Same-symbol
// pairs are recoverable from Eq. 2 directly and are not stored.
func (c *Code) decHintEnum(emit func(rem uint64, sA, sB int, dA, dB int64)) {
	g := c.cfg.Geometry
	deltas := bitDeltas[:2*g.SymbolBits]
	rems := c.deltaRemainders(deltas)
	n := len(deltas)
	for sA := 0; sA < g.NumSymbols; sA++ {
		for sB := sA + 1; sB < g.NumSymbols; sB++ {
			for tA := 0; tA < g.SymbolBits; tA++ {
				for tB := 0; tB < g.SymbolBits; tB++ {
					for _, iA := range [2]int{2 * tA, 2*tA + 1} {
						for _, iB := range [2]int{2 * tB, 2*tB + 1} {
							emit(c.addMod(rems[sA*n+iA], rems[sB*n+iB]), sA, sB, deltas[iA], deltas[iB])
						}
					}
				}
			}
		}
	}
}

// nibbleDeltas are the signed errors one beat of one x4 device can put
// on an 8-bit symbol: a nibble value on either half.
var nibbleDeltas = func() []int64 {
	out := make([]int64, 0, 60)
	for x := int64(1); x <= 15; x++ {
		out = append(out, x, -x, x<<4, -(x << 4))
	}
	return out
}()

// bfbfHintEnum enumerates double bounded faults: two beat-aligned
// nibble corruptions in different symbols (a bounded fault is what one
// beat of one x4 device can corrupt).
func (c *Code) bfbfHintEnum(emit func(rem uint64, sA, sB int, dA, dB int64)) {
	g := c.cfg.Geometry
	rems := c.deltaRemainders(nibbleDeltas)
	n := len(nibbleDeltas)
	for sA := 0; sA < g.NumSymbols; sA++ {
		for sB := sA + 1; sB < g.NumSymbols; sB++ {
			for iA, dA := range nibbleDeltas {
				for iB, dB := range nibbleDeltas {
					emit(c.addMod(rems[sA*n+iA], rems[sB*n+iB]), sA, sB, dA, dB)
				}
			}
		}
	}
}

// pinPatterns is pinDeltaPatterns computed once: the pattern set is a
// pure function of the 8-bit-symbol layout, and rebuilding it per
// ChipKill+1 attempt was the only allocation on the corrected path.
var pinPatterns = pinDeltaPatterns()

// pinDeltaPatterns returns the signed in-symbol deltas a single failed
// pin can produce on one codeword of the 8-bit-symbol layout: the pin's
// bit in the first beat (bit k), in the second beat (bit k+4), or both.
func pinDeltaPatterns() []pinPattern {
	var out []pinPattern
	for k := 0; k < 4; k++ {
		for _, s1 := range []int64{-1, 0, 1} {
			for _, s2 := range []int64{-1, 0, 1} {
				if s1 == 0 && s2 == 0 {
					continue
				}
				out = append(out, pinPattern{pin: k, delta: s1<<uint(k) + s2<<uint(k+4)})
			}
		}
	}
	return out
}

type pinPattern struct {
	pin   int
	delta int64
}

// chipKillPlus1Candidates generates per-word candidates under the
// hypothesis (failed device a, second device b with failed pin k): the
// pin contributes one of its patterns (or nothing) and device a's symbol
// error is derived from the residual remainder via Eq. 2/Eq. 3.
func (c *Code) chipKillPlus1Candidates(dst []correction, s *Scratch, w wideint.U192, rem uint64, devA, devB, pin int, patterns []pinPattern) []correction {
	raw := dst
	// Pin quiet on this codeword: pure device-a error.
	if c.fast != nil {
		if d := c.fastSingleAt(rem, devA); d != 0 {
			raw = append(raw, corr1(devA, int64(d)))
		}
	} else {
		for _, cand := range c.symbolCandidates(s, rem) {
			if cand.Symbol == devA {
				raw = append(raw, corr1(devA, cand.Delta))
			}
		}
	}
	for _, p := range patterns {
		if p.pin != pin {
			continue
		}
		// A failed pin only ever flips its own two in-symbol bits; drop
		// deltas whose subtraction would borrow into other bits (the
		// pin-side half of the PRUNER's model-consistency filtering).
		if !c.pinDeltaConsistent(w, devB, pin, p.delta) {
			continue
		}
		// Pin-only: the whole remainder explained by the pin pattern.
		if c.tab.SymbolRemainder(p.delta, devB) == rem {
			raw = append(raw, corr1(devB, p.delta))
		}
		// Pin plus device-a error.
		if dA, ok := c.tab.SolvePair(rem, devA, devB, p.delta); ok {
			raw = append(raw, corr2(devA, dA, devB, p.delta))
		}
	}
	return c.finishCandidates(w, raw, ModelChipKillPlus1)
}

// pinDeltaConsistent checks that undoing delta on the device's symbol
// flips only the two bits pin k drives (bits k and k+4 of the symbol).
func (c *Code) pinDeltaConsistent(w wideint.U192, dev, pin int, delta int64) bool {
	flips, ok := c.flipsOf(w, symDelta{Sym: dev, Delta: delta})
	if !ok {
		return false
	}
	allowed := uint64(1)<<uint(pin) | uint64(1)<<uint(pin+4)
	return flips != 0 && flips&^allowed == 0
}
