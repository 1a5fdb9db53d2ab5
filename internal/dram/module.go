package dram

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Module models one rank of a DDR5 sub-channel as an addressable array of
// bursts plus a device-level fault state: stuck pins corrupt every read,
// dead devices return junk, and weak cells hold latent single-bit faults
// (the rowhammer-susceptible population). The fault state reproduces the
// failure taxonomy of §II-B — IO faults manifest on every access, array
// faults only where they live.
type Module struct {
	lines []Burst
	// stuck and stuckHigh are 40-bit pin masks over a beat: the stuck
	// pins, and which of them are stuck at 1.
	stuck, stuckHigh uint64
	dead             [Devices]bool
	// weak indexes the weak cells by line, each cell a BitIndex, so a
	// read or a rewrite touches only its own line's cells.
	weak map[int][]uint16
	junk uint64 // LFSR state for dead-device reads
}

// NewModule allocates a module holding the given number of bursts.
func NewModule(lines int) *Module {
	return &Module{
		lines: make([]Burst, lines),
		weak:  make(map[int][]uint16),
		junk:  0x9e3779b97f4a7c15,
	}
}

// Lines returns the module capacity in bursts.
func (m *Module) Lines() int { return len(m.lines) }

// WriteBurst stores a burst. Writing a line rewrites its array cells, so
// any latched flips on the line are cleared (this is how scrubbing heals
// array faults); stuck pins and dead devices are IO/device faults and
// keep corrupting subsequent reads.
func (m *Module) WriteBurst(i int, b Burst) {
	m.lines[i] = b
	m.HealLine(i)
}

// ReadBurst returns the stored burst as the failing hardware would
// deliver it: weak cells flipped, dead devices replaced with junk (drawn
// device by device in index order, beat-major, pin-minor), stuck pins
// forced to their polarity on every beat.
func (m *Module) ReadBurst(i int) Burst {
	b := m.lines[i]
	for _, bit := range m.weak[i] {
		b[bit/8] ^= 1 << (bit % 8)
	}
	for dev, dead := range m.dead {
		if !dead {
			continue
		}
		sh := uint(dev * PinsPerDevice)
		for t := 0; t < Beats; t++ {
			var nib uint64
			for p := 0; p < PinsPerDevice; p++ {
				m.junk ^= m.junk << 13
				m.junk ^= m.junk >> 7
				m.junk ^= m.junk << 17
				nib |= (m.junk & 1) << p
			}
			b.setBeat(t, b.beat(t)&^(0xf<<sh)|nib<<sh)
		}
	}
	if m.stuck != 0 {
		for t := 0; t < Beats; t++ {
			b.setBeat(t, b.beat(t)&^m.stuck|m.stuckHigh)
		}
	}
	return b
}

// AddStuckPin registers an IO pin stuck at the given polarity.
func (m *Module) AddStuckPin(pin int, polarity uint) error {
	if pin < 0 || pin >= Pins {
		return fmt.Errorf("dram: pin %d out of range", pin)
	}
	m.stuck |= 1 << pin
	m.stuckHigh = m.stuckHigh&^(1<<pin) | uint64(polarity&1)<<pin
	return nil
}

// ClearStuckPin removes a stuck-pin fault (e.g. after a repair action).
func (m *Module) ClearStuckPin(pin int) {
	if pin >= 0 && pin < Pins {
		m.stuck &^= 1 << pin
		m.stuckHigh &^= 1 << pin
	}
}

// KillDevice marks a whole device as failed.
func (m *Module) KillDevice(dev int) error {
	if dev < 0 || dev >= Devices {
		return fmt.Errorf("dram: device %d out of range", dev)
	}
	m.dead[dev] = true
	return nil
}

// ReviveDevice clears a device failure (a replaced DIMM in the model).
func (m *Module) ReviveDevice(dev int) {
	if dev >= 0 && dev < Devices {
		m.dead[dev] = false
	}
}

// AddWeakCell registers a latched single-bit array flip: the stored bit
// reads inverted until the line is rewritten.
func (m *Module) AddWeakCell(line, beat, pin int) error {
	if line < 0 || line >= len(m.lines) || beat < 0 || beat >= Beats || pin < 0 || pin >= Pins {
		return fmt.Errorf("dram: cell (%d,%d,%d) out of range", line, beat, pin)
	}
	bit := uint16(BitIndex(beat, pin))
	cells := m.weak[line]
	if !slices.Contains(cells, bit) {
		m.weak[line] = append(cells, bit)
	}
	return nil
}

// HealLine clears every latched flip on one line (a rewrite).
func (m *Module) HealLine(line int) { delete(m.weak, line) }

// FaultCounts summarizes the active fault state.
func (m *Module) FaultCounts() (stuckPins, deadDevices, weakCells int) {
	for _, dead := range m.dead {
		if dead {
			deadDevices++
		}
	}
	for _, cells := range m.weak {
		weakCells += len(cells)
	}
	return bits.OnesCount64(m.stuck), deadDevices, weakCells
}

// Hammer models a rowhammer episode: each aggressor activation flips a
// few random cells on the victim line with the supplied RNG, registering
// them as weak cells so they persist until healed.
func (m *Module) Hammer(victim int, flips int, r *rand.Rand) {
	for i := 0; i < flips; i++ {
		_ = m.AddWeakCell(victim, r.Intn(Beats), r.Intn(Pins))
	}
}
