package dram

import (
	"math/rand"
	"testing"

	"polyecc/internal/wideint"
)

func randBurst(r *rand.Rand) Burst {
	var b Burst
	r.Read(b[:])
	return b
}

func TestBitSetFlip(t *testing.T) {
	var b Burst
	b.SetBit(3, 17, 1)
	if b.Bit(3, 17) != 1 {
		t.Fatal("SetBit/Bit broken")
	}
	if b.OnesCount() != 1 {
		t.Fatal("OnesCount wrong")
	}
	b.FlipBit(3, 17)
	if !b.IsZero() {
		t.Fatal("FlipBit did not clear")
	}
}

func TestBitIndexDisjoint(t *testing.T) {
	seen := make(map[int]bool)
	for beat := 0; beat < Beats; beat++ {
		for pin := 0; pin < Pins; pin++ {
			i := BitIndex(beat, pin)
			if i < 0 || i >= BurstBits || seen[i] {
				t.Fatalf("BitIndex(%d,%d) = %d invalid or duplicate", beat, pin, i)
			}
			seen[i] = true
		}
	}
}

func TestXor(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := randBurst(r)
	orig := b
	m := randBurst(r)
	b.Xor(&m)
	b.Xor(&m)
	if b != orig {
		t.Fatal("double Xor should restore")
	}
}

func TestWordGeometryValidate(t *testing.T) {
	if err := (WordGeometry{SymbolBits: 8}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (WordGeometry{SymbolBits: 16}).Validate(); err != nil {
		t.Error(err)
	}
	// 32- and 64-bit symbols tile the burst, but their 320- and 640-bit
	// codewords do not fit the 192-bit integer Word returns.
	for _, s := range []int{0, 3, 5, 7, 32, 64} {
		if err := (WordGeometry{SymbolBits: s}).Validate(); err == nil {
			t.Errorf("symbol width %d should be invalid", s)
		}
	}
}

func TestWordCounts(t *testing.T) {
	g8 := WordGeometry{SymbolBits: 8}
	if g8.WordsPerBurst() != 8 || g8.WordBits() != 80 || g8.BeatsPerWord() != 2 {
		t.Fatalf("8-bit geometry wrong: %d %d %d", g8.WordsPerBurst(), g8.WordBits(), g8.BeatsPerWord())
	}
	g16 := WordGeometry{SymbolBits: 16}
	if g16.WordsPerBurst() != 4 || g16.WordBits() != 160 || g16.BeatsPerWord() != 4 {
		t.Fatalf("16-bit geometry wrong: %d %d %d", g16.WordsPerBurst(), g16.WordBits(), g16.BeatsPerWord())
	}
}

func TestWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, g := range []WordGeometry{{SymbolBits: 8}, {SymbolBits: 16}} {
		for trial := 0; trial < 50; trial++ {
			b := randBurst(r)
			orig := b
			for w := 0; w < g.WordsPerBurst(); w++ {
				u := g.Word(&b, w)
				g.SetWord(&b, w, u)
			}
			if b != orig {
				t.Fatalf("symbolBits=%d: Word/SetWord not a round trip", g.SymbolBits)
			}
		}
	}
}

// Words must tile the burst: writing all words of random values and
// reading them back recovers the values, and every wire bit is covered.
func TestWordsTileBurst(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := WordGeometry{SymbolBits: 8}
	var b Burst
	want := make([]wideint.U192, g.WordsPerBurst())
	for w := range want {
		want[w] = wideint.U192{W0: r.Uint64(), W1: uint64(r.Intn(1 << 16))}
		g.SetWord(&b, w, want[w])
	}
	for w := range want {
		if g.Word(&b, w) != want[w] {
			t.Fatalf("word %d mismatch", w)
		}
	}
	// Coverage: setting every word to all-ones must set all 640 bits.
	all := wideint.Mask(0, 80)
	for w := 0; w < g.WordsPerBurst(); w++ {
		g.SetWord(&b, w, all)
	}
	if b.OnesCount() != BurstBits {
		t.Fatalf("words do not tile the burst: %d bits covered", b.OnesCount())
	}
}

// A whole-device failure must corrupt exactly one symbol of each codeword
// — the SDDC property of Figure 2 that symbol folding guarantees.
func TestDeviceFailureHitsOneSymbolPerWord(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, g := range []WordGeometry{{SymbolBits: 8}, {SymbolBits: 16}} {
		for dev := 0; dev < Devices; dev++ {
			b := randBurst(r)
			orig := b
			// Corrupt the device on every beat with random nibbles.
			patterns := make([]byte, Beats)
			for i := range patterns {
				patterns[i] = byte(1 + r.Intn(15))
			}
			m := DeviceMask(dev, 0, Beats, patterns)
			b.Xor(&m)
			for w := 0; w < g.WordsPerBurst(); w++ {
				diff := g.Word(&b, w).Xor(g.Word(&orig, w))
				for s := 0; s < Devices; s++ {
					f := diff.Field(s*g.SymbolBits, g.SymbolBits)
					if s == dev && f == 0 {
						t.Fatalf("symbolBits=%d dev=%d word=%d: failed device left its symbol intact", g.SymbolBits, dev, w)
					}
					if s != dev && f != 0 {
						t.Fatalf("symbolBits=%d dev=%d word=%d: corruption leaked into symbol %d", g.SymbolBits, dev, w, s)
					}
				}
			}
		}
	}
}

// A failed pin must hit bits k and k+4 of its device's symbol in the
// 8-bit view — the in-symbol pattern the ChipKill+1 fault model uses.
func TestPinFaultPattern(t *testing.T) {
	g := WordGeometry{SymbolBits: 8}
	for pin := 0; pin < Pins; pin++ {
		var b Burst
		m := PinMask(pin, 0, Beats)
		b.Xor(&m)
		dev := DeviceOfPin(pin)
		k := pin % PinsPerDevice
		for w := 0; w < g.WordsPerBurst(); w++ {
			u := g.Word(&b, w)
			sym := u.Field(dev*8, 8)
			want := uint64(1)<<uint(k) | 1<<uint(k+4)
			if sym != want {
				t.Fatalf("pin %d word %d: symbol pattern %08b, want %08b", pin, w, sym, want)
			}
		}
	}
}

func TestWordBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := WordGeometry{SymbolBits: 8}
	b := randBurst(r)
	orig := b
	for w := 0; w < g.WordsPerBurst(); w++ {
		var bytes, got [Devices]byte
		g.WordBytes(&b, w, bytes[:])
		// Byte s is symbol s of the integer view.
		u := g.Word(&b, w)
		for s := range bytes {
			if uint64(bytes[s]) != u.Field(8*s, 8) {
				t.Fatalf("word %d: byte %d = %#x, symbol %#x", w, s, bytes[s], u.Field(8*s, 8))
			}
		}
		g.SetWordBytes(&b, w, bytes[:])
		g.WordBytes(&b, w, got[:])
		if got != bytes {
			t.Fatal("WordBytes round trip failed")
		}
	}
	if b != orig {
		t.Fatal("SetWordBytes of the read bytes changed the burst")
	}
}

func TestBambooWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	b := randBurst(r)
	orig := b
	for h := 0; h < BambooWordsPerBurst; h++ {
		var sym [Pins]byte
		BambooWord(&b, h, &sym)
		SetBambooWord(&b, h, &sym)
	}
	if b != orig {
		t.Fatal("Bamboo round trip failed")
	}
}

// In the Bamboo view, a failed pin corrupts exactly one symbol per
// codeword, and a failed device corrupts exactly PinsPerDevice symbols —
// that is why Bamboo needs t=4 to give ChipKill (§VII-A).
func TestBambooPinAlignment(t *testing.T) {
	var b Burst
	m := PinMask(13, 0, Beats)
	b.Xor(&m)
	for h := 0; h < BambooWordsPerBurst; h++ {
		var sym [Pins]byte
		BambooWord(&b, h, &sym)
		for p := 0; p < Pins; p++ {
			if (p == 13) != (sym[p] != 0) {
				t.Fatalf("half %d: pin fault misaligned at symbol %d", h, p)
			}
			if p == 13 && sym[p] != 0xff {
				t.Fatalf("half %d: stuck pin should corrupt all 8 beats, got %08b", h, sym[p])
			}
		}
	}
	// Device failure: exactly 4 corrupted bamboo symbols.
	var b2 Burst
	patterns := make([]byte, Beats)
	for i := range patterns {
		patterns[i] = 0xf
	}
	dm := DeviceMask(3, 0, Beats, patterns)
	b2.Xor(&dm)
	var sym [Pins]byte
	BambooWord(&b2, 0, &sym)
	n := 0
	for _, v := range sym {
		if v != 0 {
			n++
		}
	}
	if n != PinsPerDevice {
		t.Fatalf("device failure corrupted %d bamboo symbols, want %d", n, PinsPerDevice)
	}
}

func TestBitMask(t *testing.T) {
	m := BitMask(5, 21)
	if m.OnesCount() != 1 || m.Bit(5, 21) != 1 {
		t.Fatal("BitMask wrong")
	}
}

func TestDeviceOfPin(t *testing.T) {
	if DeviceOfPin(0) != 0 || DeviceOfPin(3) != 0 || DeviceOfPin(4) != 1 || DeviceOfPin(39) != 9 {
		t.Fatal("DeviceOfPin wrong")
	}
}

func BenchmarkWordExtract8(b *testing.B) {
	g := WordGeometry{SymbolBits: 8}
	var burst Burst
	for i := range burst {
		burst[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		g.Word(&burst, i%8)
	}
}
