// Package dram models the DDR5 memory organization of §II-A of the
// paper: a 40-bit ECC sub-channel built from ten x4 DRAM devices, moving
// a 64-byte cacheline plus redundancy as a 16-beat burst (Figure 1).
//
// All the compared codes — Polymorphic ECC, the SDDC Reed-Solomon code,
// Unity ECC and Bamboo ECC — protect the same 640 wire bits; they differ
// only in how they group those bits into codewords and symbols
// (Figure 2). This package owns the wire layout and the views each code
// takes of it, so that a single physical fault (a dead device, a stuck
// pin, a flipped cell) is seen by every code exactly as the hardware
// would present it.
package dram

import (
	"encoding/binary"
	"fmt"

	"polyecc/internal/wideint"
)

// Geometry of one DDR5 ECC sub-channel.
const (
	PinsPerDevice = 4  // x4 DRAMs
	Devices       = 10 // 8 data + 2 ECC devices (Figure 1, bottom)
	Pins          = PinsPerDevice * Devices
	Beats         = 16           // burst length BL16
	BurstBits     = Pins * Beats // 640: 512 data + 128 redundancy
	BurstBytes    = BurstBits / 8
)

// Burst is the 640 bits a sub-channel transfers for one cacheline,
// including redundancy. Bit (beat, pin) is stored at index beat*Pins+pin.
type Burst [BurstBytes]byte

// BitIndex maps a (beat, pin) coordinate to a flat bit index.
func BitIndex(beat, pin int) int { return beat*Pins + pin }

// Bit returns the wire bit at (beat, pin).
func (b *Burst) Bit(beat, pin int) uint {
	i := BitIndex(beat, pin)
	return uint(b[i/8]>>(i%8)) & 1
}

// SetBit sets the wire bit at (beat, pin).
func (b *Burst) SetBit(beat, pin int, v uint) {
	i := BitIndex(beat, pin)
	if v == 0 {
		b[i/8] &^= 1 << (i % 8)
	} else {
		b[i/8] |= 1 << (i % 8)
	}
}

// FlipBit inverts the wire bit at (beat, pin).
func (b *Burst) FlipBit(beat, pin int) {
	i := BitIndex(beat, pin)
	b[i/8] ^= 1 << (i % 8)
}

// Xor applies a flip mask to the burst, modelling in-memory corruption.
func (b *Burst) Xor(mask *Burst) {
	for i := range b {
		b[i] ^= mask[i]
	}
}

// IsZero reports whether no bit is set (useful for masks).
func (b *Burst) IsZero() bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (b *Burst) OnesCount() int {
	n := 0
	for _, v := range b {
		for v != 0 {
			n++
			v &= v - 1
		}
	}
	return n
}

// DeviceOfPin returns the device that drives a pin.
func DeviceOfPin(pin int) int { return pin / PinsPerDevice }

// --- Polymorphic ECC / symbol-folded views -------------------------------

// WordGeometry describes a symbol-folded codeword view: symbolBits bits
// per device gathered across symbolBits/PinsPerDevice consecutive beats.
// The 8-bit-symbol view yields eight 80-bit codewords per burst; the
// 16-bit view yields four 160-bit codewords (§VIII-A); the 4-bit view is
// one beat per codeword.
type WordGeometry struct {
	SymbolBits int
}

// BeatsPerWord returns how many beats one codeword spans.
func (g WordGeometry) BeatsPerWord() int { return g.SymbolBits / PinsPerDevice }

// WordsPerBurst returns how many codewords one burst carries.
func (g WordGeometry) WordsPerBurst() int { return Beats / g.BeatsPerWord() }

// WordBits returns the codeword width in bits.
func (g WordGeometry) WordBits() int { return Devices * g.SymbolBits }

// Validate checks the geometry is one the channel supports: whole beats
// per symbol, whole codewords per burst, and a codeword that fits the
// 192-bit integer Word returns. That leaves 4-, 8- and 16-bit symbols.
func (g WordGeometry) Validate() error {
	if g.SymbolBits%PinsPerDevice != 0 || g.SymbolBits <= 0 || Beats%g.BeatsPerWord() != 0 ||
		g.WordBits() > 192 {
		return fmt.Errorf("dram: unsupported symbol width %d", g.SymbolBits)
	}
	return nil
}

// beatBytes is the size of one beat on the wire. A beat is the 40 pins
// of one transfer, so it fills exactly five burst bytes: pin p of beat t
// is bit p of the little-endian 40-bit value at bytes [5t, 5t+5), and
// device d's nibble is bits [4d, 4d+4) of it. Every view below is a
// shuffle of whole beats.
const beatBytes = Pins / 8

// beat returns beat t's 40 wire bits, pin p at bit p.
func (b *Burst) beat(t int) uint64 {
	i := beatBytes * t
	return uint64(binary.LittleEndian.Uint32(b[i:])) | uint64(b[i+4])<<32
}

// setBeat stores the low 40 bits of v as beat t.
func (b *Burst) setBeat(t int, v uint64) {
	i := beatBytes * t
	binary.LittleEndian.PutUint32(b[i:], uint32(v))
	b[i+4] = byte(v >> 32)
}

// spread4 moves nibble i of the low 32 bits of x to the low half of byte
// i; compact4 is its inverse, reading the low nibble of every byte.
func spread4(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return (x | x<<4) & 0x0f0f0f0f0f0f0f0f
}

func compact4(x uint64) uint64 {
	x &= 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0xffffffff
}

// spread8 moves byte i of the low 32 bits of x to the low half of 16-bit
// lane i; compact8 is its inverse.
func spread8(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	return (x | x<<8) & 0x00ff00ff00ff00ff
}

func compact8(x uint64) uint64 {
	x &= 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0xffffffff
}

// zipNibbles interleaves two beats device by device: byte d of the
// 80-bit result (lo holds bytes 0..7, hi bytes 8..9) is device d's
// nibble of x below its nibble of y — an 8-bit symbol.
func zipNibbles(x, y uint64) (lo, hi uint64) {
	lo = spread4(x) | spread4(y)<<4
	hi = spread4(x>>32) | spread4(y>>32)<<4
	return lo, hi
}

// unzipNibbles inverts zipNibbles.
func unzipNibbles(lo, hi uint64) (x, y uint64) {
	x = compact4(lo) | compact4(hi)<<32
	y = compact4(lo>>4) | compact4(hi>>4)<<32
	return x, y
}

// Word extracts codeword w of the burst as an integer whose bit layout
// places symbol s at bit offset s*SymbolBits. Symbol s is device s's
// nibbles across the codeword's beats, first beat lowest (Figure 2(b):
// an 8-bit symbol holds two beats of one x4 device).
func (g WordGeometry) Word(b *Burst, w int) wideint.U192 {
	switch g.SymbolBits {
	case 4:
		return wideint.U192{W0: b.beat(w)}
	case 8:
		lo, hi := zipNibbles(b.beat(2*w), b.beat(2*w+1))
		return wideint.U192{W0: lo, W1: hi}
	case 16:
		// Two 8-bit-symbol halves, byte-interleaved symbol by symbol.
		p0, p1 := zipNibbles(b.beat(4*w), b.beat(4*w+1))
		q0, q1 := zipNibbles(b.beat(4*w+2), b.beat(4*w+3))
		return wideint.U192{
			W0: spread8(p0) | spread8(q0)<<8,
			W1: spread8(p0>>32) | spread8(q0>>32)<<8,
			W2: spread8(p1) | spread8(q1)<<8,
		}
	}
	panic(fmt.Sprintf("dram: unsupported symbol width %d", g.SymbolBits))
}

// SetWord stores an integer codeword back into the burst. Bits of u at
// or above WordBits are ignored.
func (g WordGeometry) SetWord(b *Burst, w int, u wideint.U192) {
	switch g.SymbolBits {
	case 4:
		b.setBeat(w, u.W0)
	case 8:
		x, y := unzipNibbles(u.W0, u.W1)
		b.setBeat(2*w, x)
		b.setBeat(2*w+1, y)
	case 16:
		p0 := compact8(u.W0) | compact8(u.W1)<<32
		q0 := compact8(u.W0>>8) | compact8(u.W1>>8)<<32
		x0, x1 := unzipNibbles(p0, compact8(u.W2))
		x2, x3 := unzipNibbles(q0, compact8(u.W2>>8))
		b.setBeat(4*w, x0)
		b.setBeat(4*w+1, x1)
		b.setBeat(4*w+2, x2)
		b.setBeat(4*w+3, x3)
	default:
		panic(fmt.Sprintf("dram: unsupported symbol width %d", g.SymbolBits))
	}
}

// WordBytes fills dst[:WordBits/8] with codeword w in little-endian
// byte order; for the 8-bit-symbol view byte s is symbol s, the
// 10-symbol codeword the SDDC Reed-Solomon and Unity decoders consume.
func (g WordGeometry) WordBytes(b *Burst, w int, dst []byte) {
	u := g.Word(b, w)
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], u.W0)
	binary.LittleEndian.PutUint64(buf[8:], u.W1)
	binary.LittleEndian.PutUint64(buf[16:], u.W2)
	copy(dst[:g.WordBits()/8], buf[:])
}

// SetWordBytes stores a codeword given as WordBytes lays it out.
func (g WordGeometry) SetWordBytes(b *Burst, w int, src []byte) {
	var buf [24]byte
	copy(buf[:], src[:g.WordBits()/8])
	g.SetWord(b, w, wideint.U192{
		W0: binary.LittleEndian.Uint64(buf[0:]),
		W1: binary.LittleEndian.Uint64(buf[8:]),
		W2: binary.LittleEndian.Uint64(buf[16:]),
	})
}

// --- Bamboo (pin-aligned) view -------------------------------------------

// BambooWordsPerBurst is how many pin-aligned codewords one burst holds:
// Bamboo uses half-cacheline codewords with 8-bit symbols (§VII-A), each
// spanning 8 beats so that symbol p is exactly the 8 bits pin p supplies.
const BambooWordsPerBurst = 2

// BambooBeats is the number of beats one Bamboo codeword spans.
const BambooBeats = Beats / BambooWordsPerBurst

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x:
// bit c of row r moves to bit r of row c (Hacker's Delight §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// BambooWord fills dst with pin-aligned codeword h (0 or 1): symbol p
// gathers pin p across the 8 beats of that half, first beat lowest. Byte
// j of a beat is pins [8j, 8j+8), so each of the five byte columns of the
// half's 8 beats is one 8×8 bit transpose.
func BambooWord(b *Burst, h int, dst *[Pins]byte) {
	base := beatBytes * BambooBeats * h
	for j := 0; j < beatBytes; j++ {
		var x uint64
		for k := 0; k < BambooBeats; k++ {
			x |= uint64(b[base+beatBytes*k+j]) << (8 * k)
		}
		binary.LittleEndian.PutUint64(dst[8*j:], transpose8(x))
	}
}

// SetBambooWord stores a pin-aligned codeword back into the burst.
func SetBambooWord(b *Burst, h int, sym *[Pins]byte) {
	base := beatBytes * BambooBeats * h
	for j := 0; j < beatBytes; j++ {
		x := transpose8(binary.LittleEndian.Uint64(sym[8*j:]))
		for k := 0; k < BambooBeats; k++ {
			b[base+beatBytes*k+j] = byte(x >> (8 * k))
		}
	}
}

// --- Physical fault-mask builders ----------------------------------------

// DeviceMask returns a flip mask covering the given bit pattern on one
// device: for each beat in [beatLo, beatHi), pattern bits 0..3 select
// which of the device's pins flip in that beat. patterns[beat-beatLo]
// supplies the per-beat nibble.
func DeviceMask(dev int, beatLo, beatHi int, patterns []byte) Burst {
	var m Burst
	for beat := beatLo; beat < beatHi; beat++ {
		nib := patterns[beat-beatLo]
		for p := 0; p < PinsPerDevice; p++ {
			if nib>>uint(p)&1 != 0 {
				m.SetBit(beat, dev*PinsPerDevice+p, 1)
			}
		}
	}
	return m
}

// PinMask returns a flip mask with the given pin flipped on every beat in
// [beatLo, beatHi) — the failed-IO-pin fault of the ChipKill+1 model.
func PinMask(pin, beatLo, beatHi int) Burst {
	var m Burst
	for beat := beatLo; beat < beatHi; beat++ {
		m.SetBit(beat, pin, 1)
	}
	return m
}

// BitMask returns a mask with a single wire bit set.
func BitMask(beat, pin int) Burst {
	var m Burst
	m.SetBit(beat, pin, 1)
	return m
}
