// Package poly implements Polymorphic ECC, the primary contribution of
// "Polymorphic Error Correction" (Manzhosov & Sethumadhavan, MICRO 2024).
//
// A 64-byte cacheline is protected by (1) a keyed MAC inlined with the
// data and (2) a systematic residue code per DDR5 codeword. Each codeword
// holds, from bit 0 upward: k check bits (k = bitlen(M)), a slice of the
// cacheline MAC, and the data (Figure 6(b) of the paper). Check bits are
// chosen so the codeword is ≡ 0 (mod M); a memory error with integer
// value e leaves remainder R = e mod M.
//
// Error detection is the MAC comparison; error correction is iterative
// (Figure 8): the same remainder R is reinterpreted under each supported
// fault model — redundancy polymorphism — to derive candidate
// corrections, which are tried in turn until the recomputed MAC matches
// the embedded one (Corrected), the iteration budget is exhausted, or all
// models run dry (a detected uncorrectable error, DUE).
package poly

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/latency"
	"polyecc/internal/mac"
	"polyecc/internal/residue"
	"polyecc/internal/telemetry"
	"polyecc/internal/wideint"
)

// FaultModel identifies one of the error families the corrector can
// reinterpret a remainder under (§V-C, Table IV).
type FaultModel int

const (
	// ModelChipKill is a whole-device failure: the same symbol position
	// corrupted in every codeword of the cacheline.
	ModelChipKill FaultModel = iota
	// ModelSSC is an independent single-symbol error per codeword.
	ModelSSC
	// ModelDEC is two random single-bit errors per codeword.
	ModelDEC
	// ModelBFBF is a double bounded fault: two beat-aligned nibble
	// corruptions in different symbols of a codeword.
	ModelBFBF
	// ModelChipKillPlus1 is a device failure plus a failed pin on a
	// second device (§VIII-A).
	ModelChipKillPlus1
)

func (m FaultModel) String() string {
	switch m {
	case ModelChipKill:
		return "ChipKill"
	case ModelSSC:
		return "SSC"
	case ModelDEC:
		return "DEC"
	case ModelBFBF:
		return "BF+BF"
	case ModelChipKillPlus1:
		return "ChipKill+1"
	}
	return fmt.Sprintf("FaultModel(%d)", int(m))
}

// DefaultModels is the paper's recommended correction order: cheap,
// correlated hypotheses first, the expensive independent ones last.
var DefaultModels = []FaultModel{ModelChipKill, ModelSSC, ModelBFBF, ModelChipKillPlus1, ModelDEC}

// ModelFromName parses the String form of a FaultModel ("ChipKill",
// "SSC", "DEC", "BF+BF", "ChipKill+1") — the inverse the memory
// controller needs to turn journaled model labels back into a trial
// order.
func ModelFromName(name string) (FaultModel, bool) {
	for _, m := range []FaultModel{ModelChipKill, ModelSSC, ModelDEC, ModelBFBF, ModelChipKillPlus1} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Config selects a Polymorphic ECC instance.
type Config struct {
	Geometry residue.Geometry // symbols per codeword and symbol width
	M        uint64           // the residue multiplier
	Relaxed  bool             // admit within-symbol aliasing (16-bit regime)

	// Models is the fault-model correction order; nil means DefaultModels.
	Models []FaultModel
	// MaxIterations caps correction trials per cacheline (the N_max bound
	// of §VIII-C); 0 means unlimited.
	MaxIterations int
	// DisablePrune turns off the PRUNER (overflow/underflow and
	// fault-model-consistency filtering) for ablation studies.
	DisablePrune bool
	// NaturalOrder turns off the REORDERER (candidates tried in
	// generation order) for ablation studies.
	NaturalOrder bool
	// TryZeroRemainder enables the second correction phase of §VIII-A for
	// errors that alias to remainder zero.
	TryZeroRemainder bool

	// Metrics, when non-nil, receives every decode's outcome counters,
	// per-fault-model trial/hit counters, and the iteration histogram.
	// Counting reads no clock; decode timing is Latency's job. One
	// collector may be shared across Codes and goroutines; see
	// telemetry.DecodeMetrics.Publish for expvar wiring.
	Metrics *telemetry.DecodeMetrics
	// Trace, when non-nil, observes every correction trial (the
	// TraceFunc contract). A nil hook adds no work to the decode path.
	Trace TraceFunc
	// Latency, when non-nil, receives every encode and decode duration
	// classified by outcome (clean/corrected/uncorrectable) at 0
	// allocs/op, and is the only clock on the encode/decode paths: a
	// Code without a probe never reads the time. A Probe is a
	// single-goroutine handle — concurrent consumers mint one per worker
	// (latency.Probe.Fork). Nil costs one branch.
	Latency *latency.Probe
}

// The paper's DDR5 configurations (Table IV).

// ConfigM511 is the 8-bit-symbol code with the smallest multiplier,
// leaving a 56-bit cacheline MAC.
func ConfigM511() Config { return Config{Geometry: residue.DDR5x8, M: 511} }

// ConfigM1021 is the 8-bit-symbol code with a 48-bit MAC that also
// supports DEC.
func ConfigM1021() Config { return Config{Geometry: residue.DDR5x8, M: 1021} }

// ConfigM2005 is the paper's flagship 8-bit-symbol code: 40-bit MAC and
// support for SSC, DEC, BF+BF, and ChipKill+1.
func ConfigM2005() Config { return Config{Geometry: residue.DDR5x8, M: 2005} }

// ConfigM131049 is the 16-bit-symbol code: 60-bit MAC, SSC and DEC.
func ConfigM131049() Config {
	return Config{
		Geometry: residue.DDR5x16,
		M:        131049,
		Relaxed:  true,
		Models:   []FaultModel{ModelChipKill, ModelSSC, ModelDEC},
	}
}

// LineBytes is the protected cacheline size.
const LineBytes = 64

// Code is a ready-to-use Polymorphic ECC instance. It is safe for
// concurrent use once built.
type Code struct {
	cfg      Config
	mac      mac.MAC
	k        int // check bits per codeword = bitlen(M)
	dataBits int // data bits per codeword
	macBits  int // MAC slice bits per codeword
	words    int // codewords per cacheline
	tab      *residue.Tables
	models   []FaultModel

	// A code holds only the tables its decode reads. fast holds the
	// candidate-free correction tables (fast.go) when the configuration
	// admits them; otherwise fast is nil, the code decodes by runtime
	// enumeration, and decHints and bfbfHints are the DEC and BF+BF hint
	// tables it reads (unbuilt when the model is not configured).
	fast                *fastTables
	decHints, bfbfHints runs[pairHint]
	// macInc is the MAC's incremental interface when it supports
	// checkpointed recomputation and the data field is whole 8-byte
	// blocks; nil keeps every trial on the full-line Sum.
	macInc mac.Incremental

	// Single-limb layout shortcuts for the 8-bit-symbol codes: the data
	// field is one 64-bit limb spanning W0/W1 (fastField), every symbol
	// is a byte of W0 or W1 (fastSym8), and check+MAC sit in W0's low
	// loBits bits. The assembly/patch/correction hot paths use these to
	// avoid the generic U192 shift-and-mask machinery.
	fastField bool
	fastSym8  bool
	loBits    uint   // k + macBits: bit offset of the data field
	macMask   uint64 // (1 << macBits) - 1

	// hitCounters/trialCounters cache the per-model telemetry counters so
	// the instrumented decode path adds atomically without re-resolving
	// the label map (and its RLock) per decode. Populated whenever
	// cfg.Metrics is non-nil.
	hitCounters   [NumFaultModels]*telemetry.Counter
	trialCounters [NumFaultModels]*telemetry.Counter

	// pool backs the scratch-free entry points (DecodeLine): callers that
	// care about allocation own a Scratch instead (NewScratch). The pool
	// is a pointer so WithMetrics/WithTrace copies share it — scratches
	// depend only on geometry, which the copies preserve.
	pool *sync.Pool
}

// pairHint is a stored sub-entry for a double-symbol fault model: the
// locations of both faulty symbols and the error of the second; the first
// is derived at runtime with Eq. 3 (§V-D, §VI-B).
type pairHint struct {
	symA, symB int8
	deltaB     int32 // symbol-level signed delta of symbol B
}

// New builds a Code. The MAC's width must equal the free MAC bits of the
// configuration (macBits per codeword × codewords per line).
func New(cfg Config, m mac.MAC) (*Code, error) {
	g := cfg.Geometry
	if err := g.Validate(); err != nil {
		return nil, err
	}
	wordGeo := dram.WordGeometry{SymbolBits: g.SymbolBits}
	if err := wordGeo.Validate(); err != nil {
		return nil, err
	}
	if g.CodewordBits() != wordGeo.WordBits() {
		return nil, fmt.Errorf("poly: geometry %+v does not match the DDR5 channel", g)
	}
	if !residue.Admissible(cfg.M, g, cfg.Relaxed) {
		return nil, fmt.Errorf("poly: multiplier %d does not define a code for %+v (relaxed=%v)", cfg.M, g, cfg.Relaxed)
	}
	words := wordGeo.WordsPerBurst()
	dataBits := LineBytes * 8 / words
	k := bits.Len64(cfg.M)
	macBits := g.CodewordBits() - dataBits - k
	if macBits < 0 {
		return nil, fmt.Errorf("poly: multiplier %d needs %d check bits, leaving no room for data", cfg.M, k)
	}
	if m == nil {
		return nil, fmt.Errorf("poly: a MAC is required")
	}
	if m.Bits() != macBits*words {
		return nil, fmt.Errorf("poly: MAC is %d bits, configuration embeds %d", m.Bits(), macBits*words)
	}
	tab, err := residue.NewTables(cfg.M, g)
	if err != nil {
		return nil, err
	}
	models := cfg.Models
	if models == nil {
		models = DefaultModels
	}
	c := &Code{
		cfg:      cfg,
		mac:      m,
		k:        k,
		dataBits: dataBits,
		macBits:  macBits,
		words:    words,
		tab:      tab,
		models:   models,
	}
	if c.pairEnum(ModelBFBF) != nil && g.SymbolBits != 8 {
		return nil, fmt.Errorf("poly: BF+BF hints implemented for 8-bit symbols only")
	}
	c.loBits = uint(c.k + c.macBits)
	c.macMask = uint64(1)<<uint(c.macBits) - 1
	c.fastField = c.dataBits == 64 && c.loBits > 0 && c.loBits < 64
	c.fastSym8 = g.SymbolBits == 8 && g.CodewordBits() <= 128
	// Candidate-free fast path: invert the generators into per-remainder
	// tables. Gated to strict small-M 8-bit-symbol codes where the tables
	// stay small and every (remainder, symbol) has at most one Eq. 2
	// solution; the ablation knobs keep the enumeration they study, over
	// hint tables.
	if !cfg.Relaxed && !cfg.DisablePrune && !cfg.NaturalOrder &&
		g.SymbolBits <= 8 && cfg.M <= 1<<16 && int64(cfg.M) > 2*c.maxSym() {
		c.fast = c.buildFastTables()
	} else {
		c.buildHintTables()
	}
	if inc, ok := m.(mac.Incremental); ok && c.dataBits%64 == 0 {
		c.macInc = inc
	}
	c.cacheCounters()
	c.pool = &sync.Pool{New: func() any { return c.NewScratch() }}
	return c, nil
}

// cacheCounters resolves the per-fault-model counter pointers once so
// observe never touches the label maps on the decode path.
func (c *Code) cacheCounters() {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	for fm := 0; fm < NumFaultModels; fm++ {
		name := FaultModel(fm).String()
		c.hitCounters[fm] = m.ModelHits.Counter(name)
		c.trialCounters[fm] = m.ModelTrials.Counter(name)
	}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, m mac.MAC) *Code {
	c, err := New(cfg, m)
	if err != nil {
		panic(err)
	}
	return c
}

// M returns the multiplier.
func (c *Code) M() uint64 { return c.cfg.M }

// CheckBits returns the redundancy bits per codeword.
func (c *Code) CheckBits() int { return c.k }

// MACBitsPerWord returns the MAC slice width per codeword.
func (c *Code) MACBitsPerWord() int { return c.macBits }

// LineMACBits returns the total inlined MAC width per cacheline.
func (c *Code) LineMACBits() int { return c.macBits * c.words }

// Words returns the codewords per cacheline.
func (c *Code) Words() int { return c.words }

// Geometry returns the symbol geometry.
func (c *Code) Geometry() residue.Geometry { return c.cfg.Geometry }

// HintTableEntries returns the sub-entry count of a fault model's hint
// table as the paper stores it, one per enumerated error (0 when the
// model derives candidates purely at runtime). It counts from the
// enumerator, so a code that keeps fast tables instead reports the same
// count. Table VI's hint-storage rows are computed from these counts.
func (c *Code) HintTableEntries(m FaultModel) int {
	n := 0
	if enum := c.pairEnum(m); enum != nil {
		enum(func(uint64, int, int, int64, int64) { n++ })
	}
	return n
}

// --- Codeword encode/decode -----------------------------------------------

// maxSym returns the largest symbol value.
func (c *Code) maxSym() int64 { return int64(1)<<uint(c.cfg.Geometry.SymbolBits) - 1 }

// EncodeWord builds a codeword from dataBits of data (low bits of data,
// which may span two limbs for the 16-bit configuration) and a macBits
// MAC slice: V = (data ‖ slice) << k, check = (-V) mod M, C = V | check.
func (c *Code) EncodeWord(data wideint.U192, slice uint64) wideint.U192 {
	payload := data.Lsh(uint(c.macBits)).Or(wideint.FromUint64(mac.Truncate(slice, c.macBits)))
	v := payload.Lsh(uint(c.k))
	r := c.tab.Remainder(v)
	check := uint64(0)
	if r != 0 {
		check = c.cfg.M - r
	}
	return v.Or(wideint.FromUint64(check))
}

// Remainder returns C mod M — zero for an intact codeword. It folds the
// codeword's bytes through the precomputed residue tables rather than
// dividing (Figure 9(a)'s remainder unit as ROM lookups).
func (c *Code) Remainder(w wideint.U192) uint64 { return c.tab.Remainder(w) }

// WordData extracts the data field of a codeword.
func (c *Code) WordData(w wideint.U192) wideint.U192 {
	return w.Rsh(uint(c.k + c.macBits)).And(wideint.Mask(0, c.dataBits))
}

// WordMACSlice extracts the MAC slice of a codeword.
func (c *Code) WordMACSlice(w wideint.U192) uint64 {
	return w.Field(c.k, c.macBits)
}

// WordCheck extracts the stored check bits of a codeword.
func (c *Code) WordCheck(w wideint.U192) uint64 {
	return w.Field(0, c.k)
}

// canonicalCheck returns the check bits implied by a codeword's payload.
// The check field always fits W0 (k = bitlen(M) < 64), so clearing it is
// one masked store rather than a shift round-trip.
func (c *Code) canonicalCheck(w wideint.U192) uint64 {
	w.W0 &^= uint64(1)<<uint(c.k) - 1
	r := c.tab.Remainder(w)
	if r == 0 {
		return 0
	}
	return c.cfg.M - r
}

// --- Cacheline encode/decode ----------------------------------------------

// Line is an encoded cacheline: one residue codeword per DDR5 burst
// slice, with the MAC distributed across the codewords (Figure 6(a)).
type Line struct {
	Words []wideint.U192
}

// Clone deep-copies a Line.
func (l Line) Clone() Line {
	w := make([]wideint.U192, len(l.Words))
	copy(w, l.Words)
	return Line{Words: w}
}

// EncodeLine protects a 64-byte cacheline: the MAC is computed over the
// data, sliced evenly across the codewords, and each codeword's check
// bits cover its data and MAC slice.
func (c *Code) EncodeLine(data *[LineBytes]byte) Line {
	var l Line
	c.EncodeLineInto(&l, data)
	return l
}

// EncodeLineInto is EncodeLine writing into a caller-owned Line: dst's
// words slice is reused when it has capacity, so steady-state reuse of
// one Line encodes without heap allocation.
func (c *Code) EncodeLineInto(dst *Line, data *[LineBytes]byte) {
	if c.cfg.Latency == nil {
		c.encodeLineInto(dst, data)
		return
	}
	start := time.Now()
	c.encodeLineInto(dst, data)
	c.cfg.Latency.Observe(latency.OpEncode, time.Since(start))
}

func (c *Code) encodeLineInto(dst *Line, data *[LineBytes]byte) {
	if cap(dst.Words) < c.words {
		dst.Words = make([]wideint.U192, c.words)
	}
	dst.Words = dst.Words[:c.words]
	c.encodeWords(dst.Words, data, c.mac.Sum(data[:]))
}

// encodeWords fills out with the encoded codewords of one cacheline.
// The fastField path assembles every payload with single-limb shifts,
// folds all remainders in one batch pass, and splices the check bits in
// place — the encode-side counterpart of the decode prepass.
func (c *Code) encodeWords(out []wideint.U192, data *[LineBytes]byte, tag uint64) {
	if c.fastField && c.words <= 8 {
		lo, hi, k := c.loBits, 64-c.loBits, uint(c.k)
		for w := range out {
			d := binary.LittleEndian.Uint64(data[w*8:])
			slice := tag >> uint(w*c.macBits) & c.macMask
			out[w] = wideint.U192{W0: d<<lo | slice<<k, W1: d >> hi}
		}
		var rems [8]uint64
		c.tab.RemainderBatch(rems[:len(out)], out)
		for w := range out {
			if rems[w] != 0 {
				out[w].W0 |= c.cfg.M - rems[w]
			}
		}
		return
	}
	for w := range out {
		d := c.dataField(data, w)
		slice := tag >> uint(w*c.macBits) & (1<<uint(c.macBits) - 1)
		out[w] = c.EncodeWord(d, slice)
	}
}

// dataField extracts codeword w's data bits from the cacheline: byte i of
// the slice lands at bit offset 8i, which is exactly the little-endian
// integer of the slice — both paper configurations (64- and 128-bit data
// fields) load whole limbs instead of splicing byte fields.
func (c *Code) dataField(data *[LineBytes]byte, w int) wideint.U192 {
	switch c.dataBits {
	case 64:
		return wideint.U192{W0: binary.LittleEndian.Uint64(data[w*8:])}
	case 128:
		return wideint.U192{
			W0: binary.LittleEndian.Uint64(data[w*16:]),
			W1: binary.LittleEndian.Uint64(data[w*16+8:]),
		}
	}
	nBytes := c.dataBits / 8
	var u wideint.U192
	for i := 0; i < nBytes; i++ {
		u = u.WithField(8*i, 8, uint64(data[w*nBytes+i]))
	}
	return u
}

// writeWordData stores codeword w's data field into its slice of the
// cacheline — the store half of dataField's limb-at-a-time layout.
func (c *Code) writeWordData(word wideint.U192, w int, data *[LineBytes]byte) {
	d := c.WordData(word)
	switch c.dataBits {
	case 64:
		binary.LittleEndian.PutUint64(data[w*8:], d.W0)
	case 128:
		binary.LittleEndian.PutUint64(data[w*16:], d.W0)
		binary.LittleEndian.PutUint64(data[w*16+8:], d.W1)
	default:
		nBytes := c.dataBits / 8
		for i := 0; i < nBytes; i++ {
			data[w*nBytes+i] = byte(d.Field(8*i, 8))
		}
	}
}

// assemble reconstructs the data bytes and the embedded MAC of a line.
// The fastField path extracts each codeword's 64-bit data limb and MAC
// slice with two shifts instead of the generic U192 field machinery —
// this runs once per decode and once per correction patch, so it is a
// first-order term of the clean-decode budget.
func (c *Code) assemble(words []wideint.U192, data *[LineBytes]byte) (embedded uint64) {
	if c.fastField {
		lo, hi, k := c.loBits, 64-c.loBits, uint(c.k)
		for w, word := range words {
			binary.LittleEndian.PutUint64(data[w*8:], word.W0>>lo|word.W1<<hi)
			embedded |= (word.W0 >> k & c.macMask) << uint(w*c.macBits)
		}
		return embedded
	}
	for w, word := range words {
		c.writeWordData(word, w, data)
		embedded |= c.WordMACSlice(word) << uint(w*c.macBits)
	}
	return embedded
}

// patchWord splices one codeword into a working assembly: its data bytes
// into work and its MAC slice into the embedded-MAC accumulator. The
// correction trial loop uses it to update only the codewords a candidate
// touches instead of reassembling the whole line.
func (c *Code) patchWord(word wideint.U192, w int, work *[LineBytes]byte, embedded *uint64) {
	sh := uint(w * c.macBits)
	if c.fastField {
		binary.LittleEndian.PutUint64(work[w*8:], word.W0>>c.loBits|word.W1<<(64-c.loBits))
		*embedded = *embedded&^(c.macMask<<sh) | (word.W0>>uint(c.k)&c.macMask)<<sh
		return
	}
	c.writeWordData(word, w, work)
	mask := (uint64(1)<<uint(c.macBits) - 1) << sh
	*embedded = *embedded&^mask | c.WordMACSlice(word)<<sh
}

// ToBurst lays an encoded line onto the DDR5 wire (for experiments that
// inject physical faults shared with the baseline codes).
func (c *Code) ToBurst(l Line) dram.Burst {
	g := dram.WordGeometry{SymbolBits: c.cfg.Geometry.SymbolBits}
	var b dram.Burst
	for w, word := range l.Words {
		g.SetWord(&b, w, word)
	}
	return b
}

// FromBurst reads an encoded line off the wire.
func (c *Code) FromBurst(b *dram.Burst) Line {
	g := dram.WordGeometry{SymbolBits: c.cfg.Geometry.SymbolBits}
	words := make([]wideint.U192, c.words)
	for w := range words {
		words[w] = g.Word(b, w)
	}
	return Line{Words: words}
}
