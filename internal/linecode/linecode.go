// Package linecode gives every evaluated memory-protection scheme a
// common cacheline-level interface over the DDR5 burst, so the Table V
// and rowhammer experiments can inject one physical fault and ask each
// code what it makes of it.
//
// Four schemes are provided, matching §VII-A of the paper:
//
//   - Polymorphic ECC (the paper's contribution),
//   - the commercial-style SDDC Reed-Solomon code with symbol folding,
//   - Unity ECC (SDDC plus double-bit correction via unused syndromes),
//   - Bamboo ECC (pin-aligned symbols over half-cacheline codewords,
//     correcting four symbols).
//
// A decode returns the recovered data and whether the code declared the
// line uncorrectable (DUE). Silent data corruption (SDC) is judged by the
// caller, who knows the ground truth.
package linecode

import (
	"polyecc/internal/dram"
	"polyecc/internal/poly"
	"polyecc/internal/rs"
	"polyecc/internal/unity"
)

// LineBytes is the protected cacheline size.
const LineBytes = 64

// Outcome classifies a decode at cacheline granularity.
type Outcome int

const (
	// OK means the code returned data it believes correct (possibly after
	// correction — and possibly wrongly: compare with ground truth).
	OK Outcome = iota
	// DUE means the code detected an uncorrectable error.
	DUE
)

// Code protects 64-byte cachelines on a DDR5 burst.
type Code interface {
	// Name identifies the scheme in reports.
	Name() string
	// Encode lays a protected cacheline onto the wire.
	Encode(data *[LineBytes]byte) dram.Burst
	// Decode reads a (possibly corrupted) burst back. iters reports
	// correction trials for schemes that iterate (zero otherwise).
	Decode(b *dram.Burst) (data [LineBytes]byte, outcome Outcome, iters int)
}

// --- Polymorphic ECC -------------------------------------------------------

// Poly adapts a poly.Code to the common interface.
type Poly struct {
	C *poly.Code
	// Label overrides the display name; the registry uses it to tell the
	// multiplier configurations apart. Empty means "Polymorphic".
	Label string
}

// Name implements Code.
func (p Poly) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "Polymorphic"
}

// Encode implements Code.
func (p Poly) Encode(data *[LineBytes]byte) dram.Burst {
	return p.C.ToBurst(p.C.EncodeLine(data))
}

// Decode implements Code. It runs wire-to-data through the Code's
// pooled scratch (poly.Code.DecodeBurst), so registry consumers decode
// without per-call heap allocation.
func (p Poly) Decode(b *dram.Burst) ([LineBytes]byte, Outcome, int) {
	data, rep := p.C.DecodeBurst(b)
	if rep.Status == poly.StatusUncorrectable {
		return data, DUE, rep.Iterations
	}
	return data, OK, rep.Iterations
}

// --- SDDC Reed-Solomon ------------------------------------------------------

// RS is the commercial-style SDDC code: eight RS(10,8) codewords with
// 8-bit symbol folding (one symbol per x4 device across two beats).
type RS struct {
	code *rs.Code
	geo  dram.WordGeometry
}

// NewRS builds the SDDC Reed-Solomon scheme.
func NewRS() *RS {
	return &RS{code: rs.MustNew(10, 8), geo: dram.WordGeometry{SymbolBits: 8}}
}

// Name implements Code.
func (*RS) Name() string { return "Reed-Solomon" }

// Encode implements Code.
func (c *RS) Encode(data *[LineBytes]byte) dram.Burst {
	var b dram.Burst
	for w := 0; w < c.geo.WordsPerBurst(); w++ {
		cw, err := c.code.Encode(data[8*w : 8*w+8])
		if err != nil {
			panic(err)
		}
		c.geo.SetWordBytes(&b, w, cw)
	}
	return b
}

// Decode implements Code.
func (c *RS) Decode(b *dram.Burst) ([LineBytes]byte, Outcome, int) {
	var data [LineBytes]byte
	outcome := OK
	var cw [dram.Devices]byte
	for w := 0; w < c.geo.WordsPerBurst(); w++ {
		c.geo.WordBytes(b, w, cw[:])
		res, err := c.code.Decode(cw[:])
		if err != nil {
			outcome = DUE
			copy(data[8*w:], cw[:8])
			continue
		}
		copy(data[8*w:], res.Corrected[:8])
	}
	return data, outcome, 0
}

// --- Unity ECC --------------------------------------------------------------

// Unity wraps the unity package at burst granularity.
type Unity struct {
	code *unity.Code
	geo  dram.WordGeometry
}

// NewUnity builds the Unity-style scheme.
func NewUnity() *Unity {
	return &Unity{code: unity.New(), geo: dram.WordGeometry{SymbolBits: 8}}
}

// Name implements Code.
func (*Unity) Name() string { return "Unity" }

// Encode implements Code.
func (c *Unity) Encode(data *[LineBytes]byte) dram.Burst {
	var b dram.Burst
	for w := 0; w < c.geo.WordsPerBurst(); w++ {
		cw, err := c.code.Encode(data[8*w : 8*w+8])
		if err != nil {
			panic(err)
		}
		c.geo.SetWordBytes(&b, w, cw)
	}
	return b
}

// Decode implements Code.
func (c *Unity) Decode(b *dram.Burst) ([LineBytes]byte, Outcome, int) {
	var data [LineBytes]byte
	outcome := OK
	var cw [dram.Devices]byte
	for w := 0; w < c.geo.WordsPerBurst(); w++ {
		c.geo.WordBytes(b, w, cw[:])
		res, err := c.code.Decode(cw[:])
		if err != nil {
			outcome = DUE
			copy(data[8*w:], cw[:8])
			continue
		}
		copy(data[8*w:], res.Corrected[:8])
	}
	return data, outcome, 0
}

// --- Bamboo ECC -------------------------------------------------------------

// Bamboo is the pin-aligned scheme: two RS(40,32) codewords per burst,
// symbol p holding the bits pin p supplies across eight beats, with t=4
// so a whole-device failure (four pins) remains correctable.
type Bamboo struct {
	code *rs.Code
}

// NewBamboo builds the Bamboo-style scheme.
func NewBamboo() *Bamboo {
	return &Bamboo{code: rs.MustNew(40, 32)}
}

// Name implements Code.
func (*Bamboo) Name() string { return "Bamboo" }

// Encode implements Code.
func (c *Bamboo) Encode(data *[LineBytes]byte) dram.Burst {
	var b dram.Burst
	for h := 0; h < dram.BambooWordsPerBurst; h++ {
		cw, err := c.code.Encode(data[32*h : 32*h+32])
		if err != nil {
			panic(err)
		}
		dram.SetBambooWord(&b, h, (*[dram.Pins]byte)(cw))
	}
	return b
}

// Decode implements Code.
func (c *Bamboo) Decode(b *dram.Burst) ([LineBytes]byte, Outcome, int) {
	var data [LineBytes]byte
	outcome := OK
	var cw [dram.Pins]byte
	for h := 0; h < dram.BambooWordsPerBurst; h++ {
		dram.BambooWord(b, h, &cw)
		res, err := c.code.Decode(cw[:])
		if err != nil {
			outcome = DUE
			copy(data[32*h:], cw[:32])
			continue
		}
		copy(data[32*h:], res.Corrected[:32])
	}
	return data, outcome, 0
}
