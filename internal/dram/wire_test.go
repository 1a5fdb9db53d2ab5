package dram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"polyecc/internal/wideint"
)

// The bitwise oracle: the wire views written one bit at a time straight
// from the layout definition. The word-parallel shuffles in dram.go must
// agree with it on every input.

// oracleCoord maps bit i of codeword w to its (beat, pin) wire
// coordinate: symbol s = device s, filled beat-major.
func oracleCoord(g WordGeometry, w, i int) (beat, pin int) {
	s := i / g.SymbolBits
	k := i % g.SymbolBits
	return w*g.BeatsPerWord() + k/PinsPerDevice, s*PinsPerDevice + k%PinsPerDevice
}

func oracleWord(g WordGeometry, b *Burst, w int) wideint.U192 {
	var u wideint.U192
	for i := 0; i < g.WordBits(); i++ {
		if beat, pin := oracleCoord(g, w, i); b.Bit(beat, pin) != 0 {
			u = u.SetBit(i, 1)
		}
	}
	return u
}

func oracleSetWord(g WordGeometry, b *Burst, w int, u wideint.U192) {
	for i := 0; i < g.WordBits(); i++ {
		beat, pin := oracleCoord(g, w, i)
		b.SetBit(beat, pin, u.Bit(i))
	}
}

func oracleWordBytes(g WordGeometry, b *Burst, w int) []byte {
	u := oracleWord(g, b, w)
	out := make([]byte, g.WordBits()/8)
	for i := range out {
		out[i] = byte(u.Field(8*i, 8))
	}
	return out
}

func oracleSetWordBytes(g WordGeometry, b *Burst, w int, src []byte) {
	var u wideint.U192
	for i, v := range src {
		u = u.WithField(8*i, 8, uint64(v))
	}
	oracleSetWord(g, b, w, u)
}

func oracleBambooWord(b *Burst, h int) []byte {
	out := make([]byte, Pins)
	for p := range out {
		for k := 0; k < BambooBeats; k++ {
			out[p] |= byte(b.Bit(h*BambooBeats+k, p)) << k
		}
	}
	return out
}

func oracleSetBambooWord(b *Burst, h int, sym []byte) {
	for p := 0; p < Pins; p++ {
		for k := 0; k < BambooBeats; k++ {
			b.SetBit(h*BambooBeats+k, p, uint(sym[p]>>k)&1)
		}
	}
}

// acceptedGeometries is every symbol width Validate accepts.
var acceptedGeometries = func() []WordGeometry {
	var out []WordGeometry
	for s := 1; s <= BurstBits; s++ {
		if g := (WordGeometry{SymbolBits: s}); g.Validate() == nil {
			out = append(out, g)
		}
	}
	return out
}()

func TestAcceptedGeometries(t *testing.T) {
	var got []int
	for _, g := range acceptedGeometries {
		got = append(got, g.SymbolBits)
	}
	if len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 16 {
		t.Fatalf("Validate accepts symbol widths %v, want [4 8 16]", got)
	}
}

// checkWire holds every view of burst b, and every store of u and sym
// into it, equal to the oracle, and checks the round trips.
func checkWire(t *testing.T, b Burst, u wideint.U192, sym [Pins]byte) {
	t.Helper()
	for _, g := range acceptedGeometries {
		n := g.WordBits() / 8
		for w := 0; w < g.WordsPerBurst(); w++ {
			if got, want := g.Word(&b, w), oracleWord(g, &b, w); got != want {
				t.Fatalf("symbolBits=%d Word(%d) = %v, oracle %v", g.SymbolBits, w, got, want)
			}
			dst := make([]byte, n+1)
			dst[n] = 0xa5
			g.WordBytes(&b, w, dst)
			if want := oracleWordBytes(g, &b, w); !bytes.Equal(dst[:n], want) || dst[n] != 0xa5 {
				t.Fatalf("symbolBits=%d WordBytes(%d) = %x, oracle %x", g.SymbolBits, w, dst, want)
			}

			got, want := b, b
			g.SetWord(&got, w, u)
			oracleSetWord(g, &want, w, u)
			if got != want {
				t.Fatalf("symbolBits=%d SetWord(%d, %v) differs from the oracle", g.SymbolBits, w, u)
			}
			if back := g.Word(&got, w); back != u.And(wideint.Mask(0, g.WordBits())) {
				t.Fatalf("symbolBits=%d Word(SetWord(%v)) = %v", g.SymbolBits, u, back)
			}

			var raw [24]byte
			binary.LittleEndian.PutUint64(raw[0:], u.W0)
			binary.LittleEndian.PutUint64(raw[8:], u.W1)
			binary.LittleEndian.PutUint64(raw[16:], u.W2)
			got, want = b, b
			g.SetWordBytes(&got, w, raw[:n])
			oracleSetWordBytes(g, &want, w, raw[:n])
			if got != want {
				t.Fatalf("symbolBits=%d SetWordBytes(%d) differs from the oracle", g.SymbolBits, w)
			}

			same := b
			g.SetWord(&same, w, g.Word(&b, w))
			g.SetWordBytes(&same, w, dst[:n])
			if same != b {
				t.Fatalf("symbolBits=%d word %d: storing what was read changed the burst", g.SymbolBits, w)
			}
		}
	}
	for h := 0; h < BambooWordsPerBurst; h++ {
		var view [Pins]byte
		BambooWord(&b, h, &view)
		if want := oracleBambooWord(&b, h); !bytes.Equal(view[:], want) {
			t.Fatalf("BambooWord(%d) = %x, oracle %x", h, view, want)
		}
		got, want := b, b
		SetBambooWord(&got, h, &sym)
		oracleSetBambooWord(&want, h, sym[:])
		if got != want {
			t.Fatalf("SetBambooWord(%d) differs from the oracle", h)
		}
		var back [Pins]byte
		BambooWord(&got, h, &back)
		if back != sym {
			t.Fatalf("BambooWord(SetBambooWord(%x)) = %x", sym, back)
		}
		same := b
		SetBambooWord(&same, h, &view)
		if same != b {
			t.Fatalf("Bamboo half %d: storing what was read changed the burst", h)
		}
	}
}

// wireInput splits fuzz bytes into a burst, a codeword and a Bamboo
// symbol vector, zero-padding short input.
func wireInput(data []byte) (b Burst, u wideint.U192, sym [Pins]byte) {
	var buf [BurstBytes + 24 + Pins]byte
	copy(buf[:], data)
	copy(b[:], buf[:BurstBytes])
	u.W0 = binary.LittleEndian.Uint64(buf[BurstBytes:])
	u.W1 = binary.LittleEndian.Uint64(buf[BurstBytes+8:])
	u.W2 = binary.LittleEndian.Uint64(buf[BurstBytes+16:])
	copy(sym[:], buf[BurstBytes+24:])
	return b, u, sym
}

// FuzzWireLayout is the differential fuzzer at the wire boundary: Word,
// SetWord, the byte views and the Bamboo view against the bitwise oracle
// for every accepted geometry, plus their round trips.
func FuzzWireLayout(f *testing.F) {
	f.Add([]byte{})
	all := make([]byte, BurstBytes+24+Pins)
	for i := range all {
		all[i] = 0xff
	}
	f.Add(all)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, len(all))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, u, sym := wireInput(data)
		checkWire(t, b, u, sym)
	})
}

// TestWireLayoutOracle runs the differential check over single-bit
// bursts (every wire bit lands where the layout says) and random ones.
func TestWireLayoutOracle(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var sym [Pins]byte
	for i := 0; i < BurstBits; i++ {
		var b Burst
		b[i/8] = 1 << (i % 8)
		checkWire(t, b, wideint.U192{}.SetBit(i%192, 1), sym)
	}
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, BurstBytes+24+Pins)
		r.Read(data)
		b, u, sym := wireInput(data)
		checkWire(t, b, u, sym)
	}
}
