package poly

import (
	"fmt"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/latency"
	"polyecc/internal/mac"
	"polyecc/internal/residue"
	"polyecc/internal/telemetry"
	"polyecc/internal/wideint"
)

// Scratch holds every buffer the encode/decode hot path needs, sized from
// the Code's geometry, so EncodeLineScratch and DecodeLineScratch run
// without allocating.
//
// Ownership contract: a Scratch belongs to exactly one goroutine at a
// time. It carries no synchronization — give each worker its own (see
// campaign.Config.WorkerState) or confine one to a
// single-goroutine consumer (scrub.Scrubber). A Scratch built for one
// geometry works with any Code of the same geometry; mixing geometries
// panics. The legacy EncodeLine/DecodeLine/FromBurst entry points remain
// scratch-free (DecodeLine borrows from an internal pool) and are the
// right choice when allocation pressure does not matter.
type Scratch struct {
	enc      []wideint.U192 // EncodeLineScratch output; aliased by the returned Line
	dec      []wideint.U192 // FromBurstScratch output; aliased by the returned Line
	rems     []uint64
	corrupt  []int
	allDims  []int // the identity dims [0..words) for zero-remainder phases
	trial    []wideint.U192
	counters []int
	out      [LineBytes]byte // decode assembly target

	// Incremental-MAC checkpoint over the base assembly (s.out), saved at
	// decode entry when the line is corrupted and the Code's MAC supports
	// it. macSaved gates SumFrom: a Scratch outlives one decode and may
	// serve Codes with different MACs, so a stale state must never be
	// resumed.
	macState mac.IncState
	macSaved bool

	// Batch-decode tile buffers: DecodeLines gathers a tile's codewords
	// flat into tileWords and folds their remainders into tileRems in
	// one pass (residue.Tables.RemainderBatch). remsPrimed tells the
	// next decodeLine that s.rems is already filled from the prepass.
	tileWords  []wideint.U192
	tileRems   []uint64
	remsPrimed bool

	// Correction working state: work/workEmbedded hold the assembled
	// bytes and embedded MAC of the trial line, kept current by patching
	// only the codewords a candidate touches (patchWord) and reverting
	// them to the base line when a hypothesis is exhausted — the undo log
	// is the base codewords themselves, so revert is a handful of stores.
	work         [LineBytes]byte
	workEmbedded uint64

	// Per-dimension candidate machinery: one growable buffer per codeword,
	// reused across fault models and hypotheses.
	cands   [][]correction
	applied [][]wideint.U192
	usable  [][]bool
	sym     []residue.Candidate // Eq. 2 output buffer

	// One-entry Eq. 2 cache over sym, keyed by remainder (see
	// symbolCandidates); invalidated at every decode entry.
	symCacheRem uint64
	symCacheOK  bool

	// Dedup of single-codeword correction trials: overlapping fault
	// models (and overlapping hypotheses within one model) frequently
	// propose the same corrected codeword; the first MAC verdict covers
	// them all. Epoch tagging makes per-decode reset O(1) — entries from
	// earlier decodes are simply stale.
	seen      [seenSlots]seenEntry
	seenEpoch uint32
}

// seenSlots sizes the trial-dedup table; must be a power of two. 512
// slots dwarf any real trial sweep (budgets cap iterations far lower).
const seenSlots = 512

type seenEntry struct {
	epoch uint32
	word  int32
	w     wideint.U192
}

// seenBefore reports whether the corrected codeword w for word index wi
// was already MAC-tested during this decode, inserting it if not. On a
// full probe window it reports false — a missed dedup costs one
// redundant MAC, never a wrong answer.
func (s *Scratch) seenBefore(wi int, w wideint.U192) bool {
	h := w.W0*0x9e3779b97f4a7c15 ^ w.W1*0xbf58476d1ce4e5b9 ^
		w.W2*0x94d049bb133111eb ^ uint64(wi)*0xd6e8feb86659fd93
	h ^= h >> 29
	for probe := uint64(0); probe < 8; probe++ {
		e := &s.seen[(h+probe)&(seenSlots-1)]
		if e.epoch != s.seenEpoch {
			*e = seenEntry{epoch: s.seenEpoch, word: int32(wi), w: w}
			return false
		}
		if e.word == int32(wi) && e.w == w {
			return true
		}
	}
	return false
}

// resetSeen starts a fresh dedup generation for one decode.
func (s *Scratch) resetSeen() {
	s.seenEpoch++
	if s.seenEpoch == 0 { // epoch wrapped: stale entries would look fresh
		s.seen = [seenSlots]seenEntry{}
		s.seenEpoch = 1
	}
}

// NewScratch builds a Scratch sized for this Code's geometry.
func (c *Code) NewScratch() *Scratch {
	s := &Scratch{
		enc:      make([]wideint.U192, c.words),
		dec:      make([]wideint.U192, c.words),
		rems:     make([]uint64, c.words),
		corrupt:  make([]int, 0, c.words),
		allDims:  make([]int, c.words),
		trial:    make([]wideint.U192, c.words),
		counters: make([]int, c.words),
		cands:    make([][]correction, c.words),
		applied:  make([][]wideint.U192, c.words),
		usable:   make([][]bool, c.words),
		sym:      make([]residue.Candidate, 0, 2*c.cfg.Geometry.NumSymbols),

		tileWords: make([]wideint.U192, 0, batchTile*c.words),
		tileRems:  make([]uint64, batchTile*c.words),
	}
	for i := range s.allDims {
		s.allDims[i] = i
	}
	return s
}

// checkScratch guards against a Scratch built for a different geometry.
func (c *Code) checkScratch(s *Scratch) {
	if s == nil || len(s.enc) != c.words {
		panic("poly: Scratch does not match this Code's geometry (use Code.NewScratch)")
	}
}

// candBuf returns dimension d's candidate buffer, emptied for reuse. The
// caller stores the grown result back via setCands so the capacity
// survives to the next hypothesis.
func (s *Scratch) candBuf(d int) []correction { return s.cands[d][:0] }

func (s *Scratch) setCands(d int, list []correction) { s.cands[d] = list }

// EncodeLineScratch is EncodeLine writing into the scratch buffers: the
// returned Line aliases s and is valid until the next use of s. It
// performs no heap allocation.
func (c *Code) EncodeLineScratch(data *[LineBytes]byte, s *Scratch) Line {
	c.checkScratch(s)
	l := Line{Words: s.enc}
	c.EncodeLineInto(&l, data)
	return l
}

// FromBurstScratch is FromBurst writing into the scratch buffers: the
// returned Line aliases s and is valid until the next FromBurstScratch
// on s. Decoding the returned Line with the same Scratch is safe.
func (c *Code) FromBurstScratch(b *dram.Burst, s *Scratch) Line {
	c.checkScratch(s)
	g := dram.WordGeometry{SymbolBits: c.cfg.Geometry.SymbolBits}
	for w := range s.dec {
		s.dec[w] = g.Word(b, w)
	}
	return Line{Words: s.dec}
}

// DecodeLineScratch is DecodeLine running entirely inside s: clean
// decodes perform no heap allocation. The returned data is a copy the
// caller owns. Config.Metrics and Config.Trace behave exactly as in
// DecodeLine.
//
// Only a latency probe (Config.Latency) reads the clock: with one
// attached every decode is timed into the probe under its outcome class
// and stamped in Report.Elapsed; without one Elapsed stays zero, however
// many counters or trace hooks ride the decode.
func (c *Code) DecodeLineScratch(l Line, s *Scratch) (data [LineBytes]byte, rep Report) {
	c.checkScratch(s)
	if c.cfg.Latency == nil {
		data, rep = c.decodeLine(l, s)
		if c.cfg.Metrics != nil {
			c.observe(&rep)
		}
		return
	}
	start := time.Now()
	data, rep = c.decodeLine(l, s)
	rep.Elapsed = time.Since(start)
	if c.cfg.Metrics != nil {
		c.observe(&rep)
	}
	c.cfg.Latency.Observe(decodeOp(rep.Status), rep.Elapsed)
	return
}

// WithMetrics returns a shallow copy of the Code that feeds m on every
// decode. The copy shares the correction and residue tables (immutable
// after New), so registry consumers can attach telemetry to a shared
// Code without rebuilding it.
func (c *Code) WithMetrics(m *telemetry.DecodeMetrics) *Code {
	c2 := *c
	c2.cfg.Metrics = m
	c2.hitCounters = [NumFaultModels]*telemetry.Counter{}
	c2.trialCounters = [NumFaultModels]*telemetry.Counter{}
	c2.cacheCounters()
	return &c2
}

// WithTrace returns a shallow copy of the Code that invokes f on every
// correction trial.
func (c *Code) WithTrace(f TraceFunc) *Code {
	c2 := *c
	c2.cfg.Trace = f
	return &c2
}

// WithLatency returns a shallow copy of the Code that records every
// encode/decode duration into p (nil detaches). Like WithMetrics, the
// copy shares the correction and residue tables and the scratch pool. The
// probe follows the Scratch ownership rule — one goroutine; concurrent
// workers each decode through their own fork (latency.Probe.Fork).
func (c *Code) WithLatency(p *latency.Probe) *Code {
	c2 := *c
	c2.cfg.Latency = p
	return &c2
}

// WithMaxIterations returns a shallow copy of the Code with the per-line
// trial cap replaced (0 removes the cap). Like WithMetrics, the copy
// shares the correction and residue tables and the scratch pool, so a
// soak can bound an unbounded registry code without rebuilding it.
func (c *Code) WithMaxIterations(n int) *Code {
	c2 := *c
	c2.cfg.MaxIterations = n
	return &c2
}

// WithModels returns a shallow copy of the Code whose correction trials
// run in the given fault-model order — the candidate-ordering hook the
// adaptive memory controller drives to put the observed dominant error
// family first. Every model must already be configured on the receiver:
// the copy shares its correction tables, which hold candidates only for
// the configured models, so a model whose tables were never built
// cannot be introduced here.
func (c *Code) WithModels(models []FaultModel) (*Code, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("poly: WithModels needs at least one model")
	}
	for _, m := range models {
		found := false
		for _, have := range c.models {
			if m == have {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("poly: model %s is not configured on this code", m)
		}
	}
	c2 := *c
	c2.models = append([]FaultModel(nil), models...)
	c2.cfg.Models = c2.models
	return &c2, nil
}

// Models returns a copy of the active fault-model trial order.
func (c *Code) Models() []FaultModel {
	return append([]FaultModel(nil), c.models...)
}
