package poly

import (
	"fmt"

	"polyecc/internal/dram"
)

// Result pairs one decode's output with its input index.
type Result struct {
	Index  int
	Data   [LineBytes]byte
	Report Report
	// Err is non-nil when the decode of this line panicked; Data and
	// Report are zero. One poisoned line fails alone instead of taking
	// the whole batch's goroutine down.
	Err error
}

// DecodeLines decodes each line through DecodeLineScratch on one
// Scratch, appending one Result per line to dst (indexed relative to
// lines) and returning the extended slice. With a dst that has capacity
// for the lines the call performs no heap allocation. A panicking decode
// (a malformed line, say) is recovered into that line's Err; the other
// lines still decode.
func (c *Code) DecodeLines(dst []Result, lines []Line, s *Scratch) []Result {
	c.checkScratch(s)
	for i := range lines {
		dst = append(dst, Result{Index: i})
		c.decodeLineInto(&dst[len(dst)-1], lines[i], s)
	}
	return dst
}

// decodeLineInto decodes one line into a prepared Result with panic
// isolation: a panicking decode is recovered into that line's Err
// instead of unwinding the caller's goroutine.
func (c *Code) decodeLineInto(r *Result, l Line, s *Scratch) {
	defer func() {
		if p := recover(); p != nil {
			*r = Result{Index: r.Index, Err: fmt.Errorf("poly: decode of line %d panicked: %v", r.Index, p)}
		}
	}()
	r.Data, r.Report = c.DecodeLineScratch(l, s)
}

// DecodeBurst reads a line off the wire and decodes it through a pooled
// Scratch — the wire-to-data path with no per-call heap traffic, for
// callers without their own Scratch (the codec registry's adapter).
func (c *Code) DecodeBurst(b *dram.Burst) ([LineBytes]byte, Report) {
	s := c.pool.Get().(*Scratch)
	l := c.FromBurstScratch(b, s)
	data, rep := c.DecodeLineScratch(l, s)
	c.pool.Put(s)
	return data, rep
}
