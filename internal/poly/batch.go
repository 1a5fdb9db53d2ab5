package poly

import (
	"fmt"

	"polyecc/internal/dram"
	"polyecc/internal/wideint"
)

// batchTile is the DecodeLines tile width: the number of lines whose
// codewords are gathered and remainder-folded together before any line
// decodes. 32 lines × 8 codewords keeps the gathered words (~2.5KB) and
// each fold column L1-resident while amortizing the column walk.
const batchTile = 32

// DecodeLines decodes a batch of lines through one Scratch, appending
// one Result per line to dst (indexed relative to lines) and returning
// the extended slice. With a dst that has capacity for the batch the
// call performs no heap allocation, so sweeps decode in cache-friendly
// batches — the Scratch's buffers and the Code's tables stay hot across
// the whole run instead of being re-warmed line by line. A panicking
// decode is recovered into that line's Err; the rest of the batch still
// decodes.
//
// Internally the batch proceeds in tiles of batchTile lines: each
// tile's codewords are remainder-folded together in one bit-sliced
// column-major pass (residue.Tables.RemainderBatch) before the lines
// decode, so the fold tables are walked once per tile column rather
// than once per codeword. A tile containing a malformed line (wrong
// codeword count) falls back to the per-line path, which confines any
// panic to that line's Result.
func (c *Code) DecodeLines(dst []Result, lines []Line, s *Scratch) []Result {
	c.checkScratch(s)
	for off := 0; off < len(lines); off += batchTile {
		end := off + batchTile
		if end > len(lines) {
			end = len(lines)
		}
		dst = c.decodeTile(dst, lines[off:end], off, s)
	}
	return dst
}

// decodeTile decodes one tile, bit-slicing the remainder pass across
// its lines when every line is well-formed.
func (c *Code) decodeTile(dst []Result, tile []Line, off int, s *Scratch) []Result {
	uniform := len(tile) > 1
	for i := range tile {
		if len(tile[i].Words) != c.words {
			uniform = false
			break
		}
	}
	if !uniform {
		for i := range tile {
			dst = append(dst, Result{Index: off + i})
			c.decodeLineInto(&dst[len(dst)-1], tile[i], s)
		}
		return dst
	}
	words := s.tileWords[:0]
	for i := range tile {
		words = append(words, tile[i].Words...)
	}
	s.tileWords = words
	rems := s.tileRems[:len(words)]
	c.tab.RemainderBatch(rems, words)
	for i := range tile {
		copy(s.rems, rems[i*c.words:(i+1)*c.words])
		s.remsPrimed = true
		dst = append(dst, Result{Index: off + i})
		c.decodeLineInto(&dst[len(dst)-1], tile[i], s)
	}
	s.remsPrimed = false
	return dst
}

// decodeLineInto decodes one line into a prepared Result with panic
// isolation — the batched counterpart of ParallelDecoder.decodeOne.
func (c *Code) decodeLineInto(r *Result, l Line, s *Scratch) {
	defer func() {
		if p := recover(); p != nil {
			*r = Result{Index: r.Index, Err: fmt.Errorf("poly: decode of line %d panicked: %v", r.Index, p)}
		}
	}()
	r.Data, r.Report = c.DecodeLineScratch(l, s)
}

// FromBurstInto is FromBurst reading into a caller-owned words slice
// (reused when it has capacity), for batch consumers that keep one Line
// arena per batch slot instead of borrowing the Scratch's single buffer.
func (c *Code) FromBurstInto(dst []wideint.U192, b *dram.Burst) Line {
	if cap(dst) < c.words {
		dst = make([]wideint.U192, c.words)
	}
	dst = dst[:c.words]
	g := dram.WordGeometry{SymbolBits: c.cfg.Geometry.SymbolBits}
	for w := range dst {
		dst[w] = g.Word(b, w)
	}
	return Line{Words: dst}
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
