package poly

import (
	"reflect"
	"testing"

	"polyecc/internal/dram"
	"polyecc/internal/mac"
	"polyecc/internal/residue"
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
func checkHintTable(t *testing.T, name string, M uint64, got runs[pairHint], want map[uint64][]pairHint) {
	t.Helper()
	if got.idx == nil {
		t.Fatalf("%s: no hint table built", name)
	}
	if len(got.idx) != int(M)+1 || got.idx[0] != 0 || int(got.idx[M]) != len(got.items) || cap(got.items) != len(got.items) {
		t.Fatalf("%s: table not exact-size: %d offsets, %d/%d hints", name, len(got.idx), len(got.items), cap(got.items))
	}
	total := 0
	for rem := uint64(0); rem < M; rem++ {
		b, w := got.at(rem), want[rem]
		total += len(w)
		if len(b) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(b, w) {
			t.Fatalf("%s rem %d:\n packed %v\n oracle %v", name, rem, b, w)
		}
	}
	if total != len(got.items) {
		t.Fatalf("%s: %d packed hints, oracle has %d", name, len(got.items), total)
	}
}

// TestHintTablesMatchMapBuilder holds the packed DEC and BF+BF tables
// bucket for bucket, in order, to the map builder, for every registry
// multiplier: on the enumerated copy of a fast code, which is the only
// copy that holds hint tables, and directly on m131049, which decodes
// by enumeration. The oracle dedupes and the builder does not, so the
// match also shows these codes emit no duplicate hint.
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
		if c.fast != nil {
			if c.decHints.idx != nil || c.bfbfHints.idx != nil {
				t.Fatalf("%s: a fast code holds hint tables", tc.name)
			}
			c = c.WithEnumeratedCandidates()
		}
		checkHintTable(t, tc.name+"/DEC", c.cfg.M, c.decHints, oracleDECHints(c))
		if tc.cfg.Geometry.SymbolBits == 8 {
			checkHintTable(t, tc.name+"/BF+BF", c.cfg.M, c.bfbfHints, oracleBFBFHints(c))
		} else if c.bfbfHints.idx != nil {
			t.Fatalf("%s: BF+BF table built for %d-bit symbols", tc.name, tc.cfg.Geometry.SymbolBits)
		}
	}
}

// TestPairDeltasDistinctModM proves the lemma that lets every table
// builder skip deduplication. Two emissions of a pair enumerator share
// (rem, sA, sB, dB) only if their first deltas satisfy dA·2^LA ≡ dA'·2^LA
// (mod M); M is odd, so 2^LA is invertible and that means dA ≡ dA'
// (mod M). So no duplicate exists if no two of a model's deltas are
// congruent modulo any multiplier New accepts. For every symbol width
// the DDR5 channel takes and each pair model's delta set, the test
// checks every odd M from the smallest relaxed-admissible multiplier up
// to the set's largest pairwise difference by brute force; above that, a
// collision would need |d1−d2| ≥ M.
func TestPairDeltasDistinctModM(t *testing.T) {
	widths := 0
	for S := 1; S <= 32; S++ {
		if (dram.WordGeometry{SymbolBits: S}).Validate() != nil {
			continue
		}
		widths++
		g := residue.Geometry{NumSymbols: dram.Devices, SymbolBits: S}
		minM := uint64(3)
		for !residue.Admissible(minM, g, true) {
			minM += 2
		}
		sets := map[string][]int64{"DEC": bitDeltas[:2*S]}
		if S == 8 {
			// New rejects BF+BF on any other width.
			sets["BF+BF"] = nibbleDeltas
		}
		for model, deltas := range sets {
			var maxDiff uint64
			for i, d1 := range deltas {
				for _, d2 := range deltas[:i] {
					if d1 == d2 {
						t.Fatalf("%d-bit %s: delta %d listed twice", S, model, d1)
					}
					maxDiff = max(maxDiff, uint64(max(d1-d2, d2-d1)))
				}
			}
			checked := 0
			for M := minM; M <= maxDiff; M += 2 {
				checked++
				for i, d1 := range deltas {
					for _, d2 := range deltas[:i] {
						if (d1-d2)%int64(M) == 0 {
							t.Fatalf("%d-bit %s: deltas %d and %d collide mod %d", S, model, d1, d2, M)
						}
					}
				}
			}
			t.Logf("%d-bit %s: %d deltas, smallest admissible M %d, largest difference %d, %d multipliers checked",
				S, model, len(deltas), minM, maxDiff, checked)
		}
	}
	if widths < 3 {
		t.Fatalf("only %d symbol widths checked; the DDR5 channel takes 4, 8 and 16", widths)
	}
}
