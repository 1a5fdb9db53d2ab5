package poly

import (
	"math/rand"
	"testing"

	"polyecc/internal/mac"
	"polyecc/internal/wideint"
)

// TestCorrectorRevertRestoresWorkingState is the apply/revert property
// test: after an exhausted search (DUE, including budget exhaustion) the
// corrector's working assembly and trial words must be bit-identical to
// the corrupted line's own — every candidate the counter patched in was
// reverted, so the next decode through the same Scratch starts clean.
func TestCorrectorRevertRestoresWorkingState(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40)).WithMaxIterations(2000)
	s := c.NewScratch()
	r := rand.New(rand.NewSource(7))
	dues := 0
	for trial := 0; trial < 50; trial++ {
		var data [LineBytes]byte
		r.Read(data[:])
		l := c.EncodeLine(&data)
		// Garbage across three codewords sits outside every fault model,
		// so the search exhausts (its budget or its candidate space).
		for _, wi := range r.Perm(c.Words())[:3] {
			for b := 0; b < 6; b++ {
				l.Words[wi] = l.Words[wi].FlipBit(r.Intn(80))
			}
		}
		got, rep := c.DecodeLineScratch(l, s)
		if rep.Status != StatusUncorrectable {
			continue // a lucky MAC collision corrected it; not this test's concern
		}
		dues++
		var want [LineBytes]byte
		wantEmbedded := c.assemble(l.Words, &want)
		if got != want {
			t.Fatalf("trial %d: DUE data is not the uncorrected assembly", trial)
		}
		if s.work != want {
			t.Fatalf("trial %d: working assembly not reverted to the base line", trial)
		}
		if s.workEmbedded != wantEmbedded {
			t.Fatalf("trial %d: working embedded MAC %#x, want %#x", trial, s.workEmbedded, wantEmbedded)
		}
		for i, w := range l.Words {
			if s.trial[i] != w {
				t.Fatalf("trial %d: trial word %d not reverted: %v != %v", trial, i, s.trial[i], w)
			}
		}
	}
	if dues == 0 {
		t.Fatal("no DUE decodes exercised the revert path")
	}
}

// TestDecodeLinesMatchesSingle drives a mixed batch — clean, check-bit
// damage, single-symbol errors, and uncorrectable garbage — through
// DecodeLines and requires every Result to match the per-line decode.
func TestDecodeLinesMatchesSingle(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40)).WithMaxIterations(5000)
	s := c.NewScratch()
	r := rand.New(rand.NewSource(11))
	var lines []Line
	for i := 0; i < 40; i++ {
		var data [LineBytes]byte
		r.Read(data[:])
		l := c.EncodeLine(&data)
		switch i % 4 {
		case 1: // single bit
			l.Words[r.Intn(c.Words())] = l.Words[r.Intn(c.Words())].FlipBit(r.Intn(80))
		case 2: // full symbol
			wi, sym := r.Intn(c.Words()), r.Intn(c.Geometry().NumSymbols)
			old := l.Words[wi].Field(sym*8, 8)
			l.Words[wi] = l.Words[wi].WithField(sym*8, 8, old^uint64(1+r.Intn(255)))
		case 3: // out-of-model garbage
			for b := 0; b < 9; b++ {
				l.Words[r.Intn(c.Words())] = l.Words[r.Intn(c.Words())].FlipBit(r.Intn(80))
			}
		}
		lines = append(lines, l)
	}
	results := c.DecodeLines(make([]Result, 0, len(lines)), lines, s)
	if len(results) != len(lines) {
		t.Fatalf("got %d results for %d lines", len(results), len(lines))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("line %d: unexpected decode error: %v", i, res.Err)
		}
		if res.Index != i {
			t.Fatalf("line %d: index %d", i, res.Index)
		}
		data, rep := c.DecodeLine(lines[i])
		if res.Data != data {
			t.Errorf("line %d: batched data diverges from single decode", i)
		}
		if res.Report != rep {
			t.Errorf("line %d: batched report %+v, single %+v", i, res.Report, rep)
		}
	}
}

// TestDecodeLinesPanicIsolation poisons one line of a batch (an oversized
// words slice) and requires that line alone to fail while its neighbours
// decode normally through the same Scratch.
func TestDecodeLinesPanicIsolation(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))
	s := c.NewScratch()
	var data [LineBytes]byte
	for i := range data {
		data[i] = byte(i * 7)
	}
	good := c.EncodeLine(&data)
	poisoned := Line{Words: make([]wideint.U192, c.Words()+4)}
	results := c.DecodeLines(nil, []Line{good, poisoned, good}, s)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("line %d: unexpected error %v", i, results[i].Err)
		}
		if results[i].Report.Status != StatusClean || results[i].Data != data {
			t.Fatalf("line %d: clean decode corrupted by the poisoned neighbour", i)
		}
	}
	if results[1].Err == nil {
		t.Fatal("poisoned line decoded without error")
	}
	if results[1].Index != 1 {
		t.Fatalf("poisoned line index %d, want 1", results[1].Index)
	}
}

// TestDecodeRejectsWrongWordCount feeds lines with too few or too many
// codewords to both decode entry points. DecodeLineScratch must panic
// even right after a good line, whose bytes a short line would
// otherwise inherit from the Scratch; DecodeLines must turn each into
// that line's Err and leave its neighbours decoded.
func TestDecodeRejectsWrongWordCount(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))
	s := c.NewScratch()
	var data [LineBytes]byte
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	good := c.EncodeLine(&data)
	malformed := map[string]Line{
		"empty":     {},
		"short":     {Words: good.Clone().Words[:c.Words()-1]},
		"oversized": {Words: append(good.Clone().Words, wideint.U192{})},
	}
	for name, bad := range malformed {
		t.Run(name, func(t *testing.T) {
			if _, rep := c.DecodeLineScratch(good, s); rep.Status != StatusClean {
				t.Fatalf("good line decoded %v", rep.Status)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("DecodeLineScratch accepted a %d-codeword line", len(bad.Words))
					}
				}()
				c.DecodeLineScratch(bad, s)
			}()
			results := c.DecodeLines(nil, []Line{good, bad, good}, s)
			if len(results) != 3 {
				t.Fatalf("got %d results, want 3", len(results))
			}
			if results[1].Err == nil || results[1].Index != 1 {
				t.Fatalf("malformed line: Err %v at index %d, want an error at index 1", results[1].Err, results[1].Index)
			}
			for _, i := range []int{0, 2} {
				if results[i].Err != nil || results[i].Report.Status != StatusClean || results[i].Data != data {
					t.Fatalf("line %d: %+v, want a clean decode of the good line", i, results[i])
				}
			}
		})
	}
}
