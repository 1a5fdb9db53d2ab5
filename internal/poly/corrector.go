package poly

import (
	"time"

	"polyecc/internal/wideint"
)

// Status classifies a DecodeLine outcome.
type Status int

const (
	// StatusClean means all remainders were zero and the MAC matched.
	StatusClean Status = iota
	// StatusCorrected means one correction trial produced a MAC match.
	// With probability ~2^-|MAC| per trial this can be a silent
	// miscorrection (the SDC analysis of §VIII-C); callers measuring SDC
	// compare the returned data against ground truth.
	StatusCorrected
	// StatusUncorrectable means every candidate of every enabled fault
	// model was exhausted (or the iteration budget ran out) without a MAC
	// match — a DUE.
	StatusUncorrectable
)

func (s Status) String() string {
	switch s {
	case StatusClean:
		return "clean"
	case StatusCorrected:
		return "corrected"
	case StatusUncorrectable:
		return "uncorrectable"
	}
	return "unknown"
}

// Report describes what DecodeLine did.
type Report struct {
	Status         Status
	Model          FaultModel // the model that produced the match
	Iterations     int        // correction trials (MAC recomputations)
	CorruptedWords int        // codewords with nonzero remainder
	ECCFixed       bool       // the Update-ECC step rewrote check bits

	// PerModelTrials counts the correction trials spent under each fault
	// model, indexed by FaultModel; the entries sum to Iterations. It is
	// the per-decode view of §VIII-C's N budget analysis.
	PerModelTrials [NumFaultModels]int
	// Elapsed is the decode's wall time, stamped only when a latency
	// probe is attached (Config.Latency); otherwise it is zero and no
	// clock is read, whatever counters or trace hooks are attached.
	Elapsed time.Duration
}

// TrialsFor returns the correction trials spent under model m.
func (r *Report) TrialsFor(m FaultModel) int {
	if int(m) < 0 || int(m) >= NumFaultModels {
		return 0
	}
	return r.PerModelTrials[m]
}

// DecodeLine runs the full read path of Figure 8: remainder computation,
// MAC verification, and — on mismatch — iterative correction across the
// configured fault models. It returns the (possibly corrected) data and a
// report. When the status is StatusUncorrectable the data is the
// best-effort assembly of the uncorrected line.
//
// When the Code carries telemetry each decode also feeds the collector
// (Config.Metrics), invokes the trace hook per correction trial
// (Config.Trace), and, with a latency probe (Config.Latency), is timed
// into the probe and stamped in Report.Elapsed; an uninstrumented Code
// pays none of that.
func (c *Code) DecodeLine(l Line) ([LineBytes]byte, Report) {
	s := c.pool.Get().(*Scratch)
	data, rep := c.DecodeLineScratch(l, s)
	c.pool.Put(s)
	return data, rep
}

// decodeLine is the uninstrumented decode path. Every buffer it and the
// corrector below touch lives in s. When s.remsPrimed is set the
// remainder scan is skipped — DecodeLines' tile prepass has already
// batch-folded every codeword's remainder into s.rems.
func (c *Code) decodeLine(l Line, s *Scratch) ([LineBytes]byte, Report) {
	rems := s.rems
	if s.remsPrimed {
		s.remsPrimed = false
	} else if len(l.Words) <= len(rems) {
		// The batch fold's unrolled 80-bit path beats per-word Remainder
		// calls even for a single line's eight codewords.
		c.tab.RemainderBatch(rems[:len(l.Words)], l.Words)
	} else {
		for i, w := range l.Words {
			rems[i] = c.Remainder(w)
		}
	}
	corrupted := s.corrupt[:0]
	for i := range l.Words {
		if rems[i] != 0 {
			corrupted = append(corrupted, i)
		}
	}
	s.corrupt = corrupted
	rep := Report{CorruptedWords: len(corrupted)}

	embedded := c.assemble(l.Words, &s.out)
	var sum uint64
	if c.macInc != nil && len(corrupted) > 0 {
		// A corrupted line is headed for the correction loop: absorb the
		// base assembly once, checkpointing the MAC chain per block, so
		// every trial re-verifies only from its first patched codeword.
		sum = c.macInc.SumSave(s.out[:], &s.macState)
		s.macSaved = true
	} else {
		sum = c.mac.Sum(s.out[:])
		s.macSaved = false
	}
	if sum == embedded {
		// All-zero remainders with a matching MAC is the common case; a
		// nonzero remainder with a matching MAC means the corruption is
		// confined to check bits — fix them from the intact payload
		// (the Update-ECC path).
		if len(corrupted) > 0 {
			rep.Status = StatusCorrected
			rep.Model = ModelSSC
			rep.ECCFixed = true
			return s.out, rep
		}
		rep.Status = StatusClean
		return s.out, rep
	}

	// Arm the trial working state: work/workEmbedded mirror the base
	// line's assembly, trial mirrors its codewords. runCounter patches
	// only the codewords a candidate touches and reverts them on exit, so
	// these stay in sync with base across models and hypotheses.
	s.work = s.out
	s.workEmbedded = embedded
	copy(s.trial[:len(l.Words)], l.Words)
	s.resetSeen()
	s.symCacheOK = false

	remaining := c.cfg.MaxIterations // 0 = unlimited
	for _, model := range c.models {
		hit, words := c.tryModel(model, l.Words, rems, corrupted, &rep, &remaining, s)
		if hit {
			rep.Status = StatusCorrected
			rep.Model = model
			for i := range words {
				canon := c.canonicalCheck(words[i])
				if c.WordCheck(words[i]) != canon {
					words[i] = words[i].WithField(0, c.k, canon)
					rep.ECCFixed = true
				}
			}
			// The matching trial's data bytes are already assembled in
			// work (the check-bit rewrite above never touches data or MAC
			// fields), so no reassembly is needed.
			return s.work, rep
		}
		if c.cfg.MaxIterations > 0 && remaining == 0 {
			break
		}
	}
	rep.Status = StatusUncorrectable
	return s.out, rep
}

// tryModel enumerates a fault model's candidate space. It returns whether
// a MAC match was found and, if so, the corrected codewords (which alias
// s.trial). Candidate lists live in s.cands, one buffer per dimension,
// reused across hypotheses.
func (c *Code) tryModel(model FaultModel, base []wideint.U192, rems []uint64, corrupted []int, rep *Report, remaining *int, s *Scratch) (bool, []wideint.U192) {
	switch model {
	case ModelChipKill:
		// Hypothesis: device sym failed. Errors are correlated — every
		// corrupted codeword must decode at symbol sym.
		for sym := 0; sym < c.cfg.Geometry.NumSymbols; sym++ {
			ok := true
			for d, wi := range corrupted {
				s.setCands(d, c.sscCandidatesAt(s.candBuf(d), s, base[wi], rems[wi], sym))
				if len(s.cands[d]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if hit, words := c.runCounter(model, base, corrupted, rep, remaining, s); hit {
				return true, words
			}
			if c.cfg.MaxIterations > 0 && *remaining == 0 {
				return false, nil
			}
		}
		return false, nil

	case ModelBFBF:
		// Hypothesis: devices (a, b) each suffered a bounded fault — the
		// fault pair is a device-level event, so it is correlated across
		// the cacheline like ChipKill. Per codeword the nibble deltas
		// come from the pair's fast-table run, or from the hint bucket
		// filtered to the pair.
		n := c.cfg.Geometry.NumSymbols
		for devA := 0; devA < n; devA++ {
			for devB := devA + 1; devB < n; devB++ {
				ok := true
				for d, wi := range corrupted {
					s.setCands(d, c.bfbfCandidatesAt(s.candBuf(d), s, base[wi], rems[wi], devA, devB))
					if len(s.cands[d]) == 0 {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if hit, words := c.runCounter(model, base, corrupted, rep, remaining, s); hit {
					return true, words
				}
				if c.cfg.MaxIterations > 0 && *remaining == 0 {
					return false, nil
				}
			}
		}
		return false, nil

	case ModelChipKillPlus1:
		patterns := pinPatterns
		n := c.cfg.Geometry.NumSymbols
		// ChipKill+1 has errors that alias to remainder zero (the paper
		// counts 218 for M=2005, §VIII-A): a device error cancelling the
		// pin pattern mod M leaves a clean-looking codeword. With the
		// two-phase option on, clean codewords join the hypothesis with a
		// no-op candidate plus the zero-remainder pin+device pairs.
		dims := corrupted
		if c.cfg.TryZeroRemainder {
			dims = s.allDims
		}
		for devA := 0; devA < n; devA++ {
			for devB := 0; devB < n; devB++ {
				if devB == devA {
					continue
				}
				for pin := 0; pin < 4; pin++ {
					ok := true
					for d, wi := range dims {
						list := c.chipKillPlus1Candidates(s.candBuf(d), s, base[wi], rems[wi], devA, devB, pin, patterns)
						if rems[wi] == 0 {
							list = prependNoop(list)
						}
						s.setCands(d, list)
						if len(list) == 0 {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					if hit, words := c.runCounter(model, base, dims, rep, remaining, s); hit {
						return true, words
					}
					if c.cfg.MaxIterations > 0 && *remaining == 0 {
						return false, nil
					}
				}
			}
		}
		return false, nil

	default:
		// Independent per-codeword models: SSC and DEC.
		dims := corrupted
		if c.cfg.TryZeroRemainder && model == ModelDEC {
			// Phase two (§VIII-A): errors aliasing to remainder zero are
			// also considered, so clean-looking codewords get a no-op
			// candidate plus the zero-remainder hint bucket.
			dims = s.allDims
		}
		for d, wi := range dims {
			list := c.modelCandidates(s.candBuf(d), s, model, base[wi], rems[wi])
			if rems[wi] == 0 {
				list = prependNoop(list)
			}
			s.setCands(d, list)
			if len(list) == 0 {
				return false, nil
			}
		}
		if len(dims) == 0 {
			return false, nil
		}
		return c.runCounter(model, base, dims, rep, remaining, s)
	}
}

// prependNoop inserts the leave-it-alone candidate at the head of a
// zero-remainder dimension's list, in place.
func prependNoop(list []correction) []correction {
	list = append(list, correction{})
	copy(list[1:], list)
	list[0] = correction{valid: true}
	return list
}

// modelCandidates dispatches per-codeword candidate generation for the
// independent models.
func (c *Code) modelCandidates(dst []correction, s *Scratch, model FaultModel, w wideint.U192, rem uint64) []correction {
	if rem == 0 {
		if c.cfg.TryZeroRemainder && model == ModelDEC {
			return c.decZeroCandidates(dst, w)
		}
		return dst
	}
	switch model {
	case ModelSSC:
		return c.sscCandidates(dst, s, w, rem)
	case ModelDEC:
		return c.decCandidates(dst, s, w, rem)
	}
	return dst
}

// runCounter is the ITER_DRVR of Figure 9(e), implementing Algorithm 2:
// a multidimensional counter over the candidate lists of the corrupted
// codewords. Each step selects one candidate per codeword, patches them
// into the working assembly (s.work/s.workEmbedded — no per-trial line
// copy or reassembly), and checks the MAC; the first match stops the
// walk (the STOP signal). Single-codeword steps whose corrected word was
// already MAC-tested this decode (an overlap between fault models or
// hypotheses) are skipped outright — same verdict, no bill. Every real
// step is billed to model in the report and, when a trace hook is
// attached, emitted as TraceEvents. On every non-hit exit the dims'
// codewords are reverted to base, restoring the working state's
// invariant for the next hypothesis.
func (c *Code) runCounter(model FaultModel, base []wideint.U192, dims []int, rep *Report, remaining *int, s *Scratch) (bool, []wideint.U192) {
	if len(dims) == 0 {
		// A residue-invisible error (every remainder zero) offers nothing
		// to iterate over; only the zero-remainder phase can help.
		return false, nil
	}
	lists := s.cands
	// Precompute the corrected codeword for every candidate so each trial
	// is a ≤2-codeword patch plus one MAC.
	for d, wi := range dims {
		ap := s.applied[d][:0]
		us := s.usable[d][:0]
		for _, co := range lists[d] {
			w, ok := c.applyCorrection(base[wi], co)
			ap = append(ap, w)
			us = append(us, ok && co.valid)
		}
		s.applied[d], s.usable[d] = ap, us
	}
	applied, usable := s.applied, s.usable
	trial := s.trial[:len(base)]
	counters := s.counters[:len(dims)]
	for d := range counters {
		counters[d] = 0
	}
	single := len(dims) == 1
	// Incremental MAC: dims is ascending and trials only patch dims'
	// codewords, so every trial's assembly agrees with the checkpointed
	// base (s.macState, saved at decode entry) on all blocks before
	// dims[0]'s data field — recompute the MAC from there.
	macFast := c.macInc != nil && s.macSaved
	fromBlock := 0
	if macFast {
		fromBlock = dims[0] * c.dataBits / 64
	}
	revert := func() {
		for _, wi := range dims {
			trial[wi] = base[wi]
			c.patchWord(base[wi], wi, &s.work, &s.workEmbedded)
		}
	}
	// advance is Algorithm 2's counter increment with carry; false means
	// LAST_ITERATION.
	advance := func() bool {
		d := 0
		for {
			counters[d]++
			if counters[d] < len(lists[d]) {
				return true
			}
			counters[d] = 0
			d++
			if d == len(dims) {
				return false
			}
		}
	}
	for {
		ok := true
		for d, wi := range dims {
			j := counters[d]
			if !usable[d][j] {
				ok = false
				break
			}
			trial[wi] = applied[d][j]
		}
		if ok {
			if single && s.seenBefore(dims[0], applied[0][counters[0]]) {
				if !advance() {
					revert()
					return false, nil
				}
				continue
			}
			for d, wi := range dims {
				c.patchWord(applied[d][counters[d]], wi, &s.work, &s.workEmbedded)
			}
		}
		rep.Iterations++
		rep.PerModelTrials[model]++
		match := false
		if ok {
			var sum uint64
			if macFast {
				sum = c.macInc.SumFrom(s.work[:], &s.macState, fromBlock)
			} else {
				sum = c.mac.Sum(s.work[:])
			}
			match = sum == s.workEmbedded
		}
		if c.cfg.Trace != nil {
			for d, wi := range dims {
				c.cfg.Trace(TraceEvent{
					Model:     model,
					Trial:     rep.Iterations,
					Word:      wi,
					Candidate: counters[d],
					MACMatch:  match,
				})
			}
		}
		if match {
			return true, trial
		}
		if c.cfg.MaxIterations > 0 {
			*remaining--
			if *remaining <= 0 {
				*remaining = 0
				revert()
				return false, nil
			}
		}
		if !advance() {
			revert()
			return false, nil // LAST_ITERATION
		}
	}
}
