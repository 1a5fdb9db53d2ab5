package linecode

import (
	"math/rand"
	"testing"

	"polyecc/internal/dram"
	"polyecc/internal/poly"
)

// fuzzCodes builds every registered codec once; a poly.Code's tables
// are expensive to rebuild per fuzz iteration and every Code is safe for
// concurrent decode.
var fuzzCodes = func() []Code {
	var out []Code
	for _, n := range Names() {
		out = append(out, MustNew(n))
	}
	return out
}()

// enumCodes holds, by codec name, the enumeration oracle of every
// Polymorphic code in fuzzCodes (poly.Code.WithEnumeratedCandidates),
// built once: a fast code's copy builds its hint tables.
var enumCodes = func() map[string]*poly.Code {
	out := map[string]*poly.Code{}
	for _, code := range fuzzCodes {
		if p, ok := code.(Poly); ok {
			out[code.Name()] = p.C.WithEnumeratedCandidates()
		}
	}
	return out
}()

// FuzzCodecs drives every registered codec with arbitrary data and
// arbitrary burst corruption. The contract under fuzz: Decode never
// panics, and on an uncorrupted burst every codec returns OK with the
// original data. Corrupted bursts may decode to anything — OK with wrong
// bytes is an SDC, which the campaigns measure rather than forbid — but
// the decoder must survive it.
func FuzzCodecs(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(8))
	f.Add(int64(4), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, flips uint8) {
		r := rand.New(rand.NewSource(seed))
		var data [LineBytes]byte
		r.Read(data[:])
		var mask dram.Burst
		for i := 0; i < int(flips); i++ {
			mask[r.Intn(len(mask))] ^= byte(1 + r.Intn(255))
		}
		clean := mask == dram.Burst{}
		for _, code := range fuzzCodes {
			b := code.Encode(&data)
			b.Xor(&mask)
			got, outcome, _ := code.Decode(&b)
			if clean {
				if outcome != OK {
					t.Errorf("%s: DUE on an uncorrupted burst", code.Name())
				} else if got != data {
					t.Errorf("%s: clean round trip corrupted the data", code.Name())
				}
			}
			// Polymorphic codes must decode identically through the
			// runtime enumeration with full-line MACs — data AND report.
			if p, ok := code.(Poly); ok {
				line := p.C.FromBurst(&b)
				fastData, fastRep := p.C.DecodeLine(line)
				enumData, enumRep := enumCodes[code.Name()].DecodeLine(line)
				if fastData != enumData || fastRep != enumRep {
					t.Errorf("%s: decode diverges from enumeration:\n fast %+v\n enum %+v",
						code.Name(), fastRep, enumRep)
				}
			}
		}
	})
}

// FuzzBatchedDecode holds the batched decode path to the single-line
// path, across every registered Polymorphic variant: for any burst
// corruption, poly.Code.DecodeLines must return bit-identical data and
// an identical report to DecodeLine — the batching, candidate pruning,
// and working-state reuse are pure mechanics, never visible in results.
func FuzzBatchedDecode(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(5), uint8(8))
	f.Add(int64(9), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, flips uint8) {
		r := rand.New(rand.NewSource(seed))
		var data [LineBytes]byte
		r.Read(data[:])
		var mask dram.Burst
		for i := 0; i < int(flips); i++ {
			mask[r.Intn(len(mask))] ^= byte(1 + r.Intn(255))
		}
		for _, code := range fuzzCodes {
			p, ok := code.(Poly)
			if !ok {
				continue
			}
			b := p.C.ToBurst(p.C.EncodeLine(&data))
			b.Xor(&mask)
			line := p.C.FromBurst(&b)
			want, wantRep := p.C.DecodeLine(line)
			// The enumeration oracle must match the fast path through the
			// single-line entry point before the batch comparison.
			enumData, enumRep := enumCodes[code.Name()].DecodeLine(line)
			if enumData != want || enumRep != wantRep {
				t.Errorf("%s: enumeration decode diverges:\n fast %+v\n enum %+v",
					code.Name(), wantRep, enumRep)
			}
			s := p.C.NewScratch()
			// The same line twice in one batch also checks that the first
			// decode leaves no state behind that shifts the second.
			res := p.C.DecodeLines(nil, []poly.Line{line, line}, s)
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("%s: batched decode %d errored: %v", code.Name(), i, res[i].Err)
				}
				if res[i].Data != want {
					t.Errorf("%s: batched decode %d data diverges from single decode", code.Name(), i)
				}
				if res[i].Report != wantRep {
					t.Errorf("%s: batched decode %d report %+v, single %+v", code.Name(), i, res[i].Report, wantRep)
				}
			}
		}
	})
}
