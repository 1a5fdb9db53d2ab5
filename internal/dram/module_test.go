package dram

import (
	"math/rand"
	"testing"
)

func TestModuleCleanRoundTrip(t *testing.T) {
	m := NewModule(16)
	if m.Lines() != 16 {
		t.Fatalf("Lines = %d", m.Lines())
	}
	var b Burst
	b.SetBit(3, 7, 1)
	m.WriteBurst(5, b)
	if got := m.ReadBurst(5); got != b {
		t.Fatal("clean read differs from write")
	}
	if got := m.ReadBurst(0); !got.IsZero() {
		t.Fatal("unwritten line should be zero")
	}
}

func TestWeakCellFlipsUntilRewritten(t *testing.T) {
	m := NewModule(4)
	var b Burst
	m.WriteBurst(1, b)
	if err := m.AddWeakCell(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	got := m.ReadBurst(1)
	if got.Bit(2, 9) != 1 || got.OnesCount() != 1 {
		t.Fatal("weak cell did not flip the stored bit")
	}
	// Other lines unaffected.
	if other := m.ReadBurst(0); !other.IsZero() {
		t.Fatal("weak cell leaked to another line")
	}
	// Rewriting the line heals the latch.
	m.WriteBurst(1, b)
	if healed := m.ReadBurst(1); !healed.IsZero() {
		t.Fatal("rewrite did not heal the flip")
	}
}

func TestStuckPinCorruptsEveryRead(t *testing.T) {
	m := NewModule(2)
	var b Burst
	m.WriteBurst(0, b)
	if err := m.AddStuckPin(13, 1); err != nil {
		t.Fatal(err)
	}
	got := m.ReadBurst(0)
	for beat := 0; beat < Beats; beat++ {
		if got.Bit(beat, 13) != 1 {
			t.Fatalf("beat %d: stuck pin not forced high", beat)
		}
	}
	if got.OnesCount() != Beats {
		t.Fatalf("stuck pin corrupted %d bits, want %d", got.OnesCount(), Beats)
	}
	// Rewrites do not fix IO faults.
	m.WriteBurst(0, b)
	if after := m.ReadBurst(0); after.IsZero() {
		t.Fatal("rewrite should not heal a stuck pin")
	}
	m.ClearStuckPin(13)
	if cleared := m.ReadBurst(0); !cleared.IsZero() {
		t.Fatal("cleared pin still corrupting")
	}
}

func TestDeadDeviceReturnsJunk(t *testing.T) {
	m := NewModule(2)
	var b Burst
	m.WriteBurst(0, b)
	if err := m.KillDevice(4); err != nil {
		t.Fatal(err)
	}
	got := m.ReadBurst(0)
	// The dead device's pins carry junk; the rest stay intact.
	junkBits := 0
	for beat := 0; beat < Beats; beat++ {
		for pin := 0; pin < Pins; pin++ {
			if got.Bit(beat, pin) != 0 {
				if DeviceOfPin(pin) != 4 {
					t.Fatalf("corruption outside the dead device at pin %d", pin)
				}
				junkBits++
			}
		}
	}
	if junkBits == 0 {
		t.Fatal("dead device returned all zeros — junk generator broken")
	}
	m.ReviveDevice(4)
	if revived := m.ReadBurst(0); !revived.IsZero() {
		t.Fatal("revived device still corrupting")
	}
}

// Dead-device junk is drawn device by device in index order, so
// identically built modules with several dead devices read identical
// bursts.
func TestDeadDevicesReadDeterministically(t *testing.T) {
	build := func() Burst {
		m := NewModule(1)
		for _, dev := range []int{7, 2, 5} {
			if err := m.KillDevice(dev); err != nil {
				t.Fatal(err)
			}
		}
		return m.ReadBurst(0)
	}
	want := build()
	for i := 0; i < 200; i++ {
		if got := build(); got != want {
			t.Fatalf("build %d: identically built modules read different bursts", i)
		}
	}
	// One dead device draws the stream in beat-major, pin-minor order.
	m := NewModule(1)
	_ = m.KillDevice(3)
	got := m.ReadBurst(0)
	junk := uint64(0x9e3779b97f4a7c15)
	for beat := 0; beat < Beats; beat++ {
		for p := 0; p < PinsPerDevice; p++ {
			junk ^= junk << 13
			junk ^= junk >> 7
			junk ^= junk << 17
			if got.Bit(beat, 3*PinsPerDevice+p) != uint(junk)&1 {
				t.Fatalf("beat %d pin %d: junk out of stream order", beat, p)
			}
		}
	}
}

// Weak cells are indexed by line: reads and rewrites of one line leave
// the others' cells alone, and re-adding a cell does not double it.
func TestWeakCellsPerLine(t *testing.T) {
	m := NewModule(8)
	for _, c := range [][3]int{{1, 0, 0}, {1, 15, 39}, {6, 7, 20}, {1, 0, 0}} {
		if err := m.AddWeakCell(c[0], c[1], c[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, wc := m.FaultCounts(); wc != 3 {
		t.Fatalf("weak cells = %d, want 3 (a repeated cell counts once)", wc)
	}
	if b := m.ReadBurst(1); b.OnesCount() != 2 || b.Bit(0, 0) != 1 || b.Bit(15, 39) != 1 {
		t.Fatal("line 1 does not read its two weak cells")
	}
	m.WriteBurst(1, Burst{})
	if _, _, wc := m.FaultCounts(); wc != 1 {
		t.Fatalf("weak cells after healing line 1 = %d, want 1", wc)
	}
	if b := m.ReadBurst(6); b.OnesCount() != 1 || b.Bit(7, 20) != 1 {
		t.Fatal("healing line 1 disturbed line 6's weak cell")
	}
}

// Stuck pins of both polarities, a dead device and a weak cell compose
// in the documented order: weak flips, then junk, then stuck pins.
func TestFaultCompositionOrder(t *testing.T) {
	m := NewModule(1)
	var b Burst
	for beat := 0; beat < Beats; beat++ {
		b.SetBit(beat, 9, 1)
	}
	m.WriteBurst(0, b)
	_ = m.AddWeakCell(0, 4, 30)
	_ = m.AddStuckPin(9, 0)
	_ = m.AddStuckPin(12, 1)
	_ = m.AddStuckPin(12, 1)
	_ = m.KillDevice(3) // pins 12..15: junk, then pin 12 forced high
	got := m.ReadBurst(0)
	for beat := 0; beat < Beats; beat++ {
		if got.Bit(beat, 9) != 0 || got.Bit(beat, 12) != 1 {
			t.Fatalf("beat %d: stuck pins not forced", beat)
		}
	}
	if got.Bit(4, 30) != 1 {
		t.Fatal("weak cell lost under IO faults on other pins")
	}
	if sp, dd, wc := m.FaultCounts(); sp != 2 || dd != 1 || wc != 1 {
		t.Fatalf("FaultCounts = %d %d %d, want 2 1 1", sp, dd, wc)
	}
	m.ClearStuckPin(12)
	m.ClearStuckPin(-1)
	m.ClearStuckPin(Pins)
	m.ReviveDevice(Devices)
	if sp, _, _ := m.FaultCounts(); sp != 1 {
		t.Fatalf("stuck pins after clearing one = %d, want 1", sp)
	}
}

func TestModuleValidation(t *testing.T) {
	m := NewModule(2)
	if err := m.AddStuckPin(40, 1); err == nil {
		t.Error("out-of-range pin accepted")
	}
	if err := m.KillDevice(10); err == nil {
		t.Error("out-of-range device accepted")
	}
	if err := m.AddWeakCell(2, 0, 0); err == nil {
		t.Error("out-of-range line accepted")
	}
	if err := m.AddWeakCell(0, 16, 0); err == nil {
		t.Error("out-of-range beat accepted")
	}
}

func TestFaultCounts(t *testing.T) {
	m := NewModule(4)
	_ = m.AddStuckPin(1, 0)
	_ = m.KillDevice(2)
	_ = m.AddWeakCell(0, 0, 0)
	_ = m.AddWeakCell(0, 1, 1)
	sp, dd, wc := m.FaultCounts()
	if sp != 1 || dd != 1 || wc != 2 {
		t.Fatalf("FaultCounts = %d %d %d", sp, dd, wc)
	}
}

func TestHammer(t *testing.T) {
	m := NewModule(8)
	r := rand.New(rand.NewSource(1))
	m.Hammer(3, 2, r)
	_, _, wc := m.FaultCounts()
	if wc == 0 || wc > 2 {
		t.Fatalf("Hammer registered %d flips, want 1..2", wc)
	}
	if hammered := m.ReadBurst(3); hammered.OnesCount() == 0 {
		t.Fatal("hammered line reads clean")
	}
}
