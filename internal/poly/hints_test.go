package poly

import (
	"math/rand"
	"reflect"
	"testing"

	"polyecc/internal/mac"
)

// The map-based hint builders the packed tables replaced, kept as the
// oracle: append-grown buckets keyed by remainder, deduped with a
// per-bucket set.

func oracleDECHints(c *Code) map[uint64][]pairHint {
	g := c.cfg.Geometry
	table := make(map[uint64][]pairHint)
	for sA := 0; sA < g.NumSymbols; sA++ {
		for sB := sA + 1; sB < g.NumSymbols; sB++ {
			for tA := 0; tA < g.SymbolBits; tA++ {
				for tB := 0; tB < g.SymbolBits; tB++ {
					for _, signA := range []int64{1, -1} {
						for _, signB := range []int64{1, -1} {
							dA := signA << uint(tA)
							dB := signB << uint(tB)
							rem := (c.tab.SymbolRemainder(dA, sA) + c.tab.SymbolRemainder(dB, sB)) % c.cfg.M
							table[rem] = append(table[rem], pairHint{symA: int8(sA), symB: int8(sB), deltaB: int32(dB)})
						}
					}
				}
			}
		}
	}
	oracleDedupe(table)
	return table
}

func oracleBFBFHints(c *Code) map[uint64][]pairHint {
	g := c.cfg.Geometry
	table := make(map[uint64][]pairHint)
	nibbleDeltas := make([]int64, 0, 60)
	for x := int64(1); x <= 15; x++ {
		nibbleDeltas = append(nibbleDeltas, x, -x, x<<4, -(x << 4))
	}
	for sA := 0; sA < g.NumSymbols; sA++ {
		for sB := sA + 1; sB < g.NumSymbols; sB++ {
			for _, dA := range nibbleDeltas {
				for _, dB := range nibbleDeltas {
					rem := (c.tab.SymbolRemainder(dA, sA) + c.tab.SymbolRemainder(dB, sB)) % c.cfg.M
					table[rem] = append(table[rem], pairHint{symA: int8(sA), symB: int8(sB), deltaB: int32(dB)})
				}
			}
		}
	}
	oracleDedupe(table)
	return table
}

func oracleDedupe(table map[uint64][]pairHint) {
	for rem, hs := range table {
		seen := make(map[pairHint]bool, len(hs))
		out := hs[:0]
		for _, h := range hs {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
		table[rem] = out
	}
}

// checkHintTable compares every remainder's bucket, in order, with the
// oracle's, and checks the table is exact-size.
func checkHintTable(t *testing.T, name string, M uint64, got *hintTable, want map[uint64][]pairHint) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no hint table built", name)
	}
	if len(got.idx) != int(M)+1 || got.idx[0] != 0 || int(got.idx[M]) != len(got.hints) || cap(got.hints) != len(got.hints) {
		t.Fatalf("%s: table not exact-size: %d offsets, %d/%d hints", name, len(got.idx), len(got.hints), cap(got.hints))
	}
	total := 0
	for rem := uint64(0); rem < M; rem++ {
		b, w := got.bucket(rem), want[rem]
		total += len(w)
		if len(b) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(b, w) {
			t.Fatalf("%s rem %d:\n packed %v\n oracle %v", name, rem, b, w)
		}
	}
	if total != len(got.hints) {
		t.Fatalf("%s: %d packed hints, oracle has %d", name, len(got.hints), total)
	}
}

// TestHintTablesMatchMapBuilder holds the packed DEC and BF+BF tables
// bucket for bucket, in order, to the map builder, for every registry
// multiplier.
func TestHintTablesMatchMapBuilder(t *testing.T) {
	codes := []struct {
		name string
		cfg  Config
		bits int
	}{
		{"m511", ConfigM511(), 56},
		{"m1021", ConfigM1021(), 48},
		{"m2005", ConfigM2005(), 40},
		{"m131049", ConfigM131049(), 60},
	}
	for _, tc := range codes {
		c := MustNew(tc.cfg, mac.MustSipHash(testKey, tc.bits))
		checkHintTable(t, tc.name+"/DEC", c.cfg.M, c.decHints, oracleDECHints(c))
		if tc.cfg.Geometry.SymbolBits == 8 {
			checkHintTable(t, tc.name+"/BF+BF", c.cfg.M, c.bfbfHints, oracleBFBFHints(c))
		} else if c.bfbfHints != nil {
			t.Fatalf("%s: BF+BF table built for %d-bit symbols", tc.name, tc.cfg.Geometry.SymbolBits)
		}
	}
}

// TestHintTableDedupe feeds buildHintTable a stream with repeated hints
// — pair-major like the real enumerators, but with duplicates the
// admissible multipliers never produce — and holds it to the map
// builder's set-based dedupe.
func TestHintTableDedupe(t *testing.T) {
	c := MustNew(ConfigM511(), mac.MustSipHash(testKey, 56))
	r := rand.New(rand.NewSource(12))
	type emitted struct {
		rem uint64
		h   pairHint
	}
	var stream []emitted
	for sA := 0; sA < 10; sA++ {
		for sB := sA + 1; sB < 10; sB++ {
			for i := 0; i < 40; i++ {
				stream = append(stream, emitted{uint64(r.Intn(7)) * 73,
					pairHint{symA: int8(sA), symB: int8(sB), deltaB: int32(r.Intn(5) - 2)}})
			}
		}
	}
	enum := func(emit func(rem uint64, h pairHint)) {
		for _, e := range stream {
			emit(e.rem, e.h)
		}
	}
	want := map[uint64][]pairHint{}
	enum(func(rem uint64, h pairHint) { want[rem] = append(want[rem], h) })
	oracleDedupe(want)
	got := c.buildHintTable(enum)
	if len(got.hints) >= len(stream) {
		t.Fatalf("stream of %d hints kept %d: no duplicates removed", len(stream), len(got.hints))
	}
	checkHintTable(t, "dedupe", c.cfg.M, got, want)
}
