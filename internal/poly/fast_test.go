package poly

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"polyecc/internal/mac"
	"polyecc/internal/wideint"
)

// fastTestCodes builds each small-M configuration with its fast tables
// (the default).
func fastTestCodes(t *testing.T) []struct {
	name string
	c    *Code
} {
	t.Helper()
	return []struct {
		name string
		c    *Code
	}{
		{"m511", MustNew(ConfigM511(), mac.MustSipHash(testKey, 56))},
		{"m1021", MustNew(ConfigM1021(), mac.MustSipHash(testKey, 48))},
		{"m2005", MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))},
	}
}

// randomWords returns codewords with realistic symbol values to exercise
// the word-dependent PRUNER filters: encoded words plus corrupted ones.
func randomWords(c *Code, r *rand.Rand, n int) []wideint.U192 {
	words := make([]wideint.U192, 0, n)
	var data [LineBytes]byte
	for len(words) < n {
		r.Read(data[:])
		l := c.EncodeLine(&data)
		w := l.Words[r.Intn(len(l.Words))]
		if len(words)%2 == 1 {
			// Flip a random symbol so under/overflow pruning fires too.
			sym := r.Intn(c.cfg.Geometry.NumSymbols)
			S := c.cfg.Geometry.SymbolBits
			w = w.WithField(sym*S, S, uint64(r.Intn(1<<uint(S))))
		}
		words = append(words, w)
	}
	return words
}

// TestHintTableDifferential holds every fast-table candidate generator
// bit-identical — same candidates, same order, same valid flags — to the
// runtime enumeration over hint tables (Code.WithEnumeratedCandidates),
// across every remainder of m511, m1021 and m2005.
func TestHintTableDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, tc := range fastTestCodes(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := tc.c, tc.c.WithEnumeratedCandidates()
			if fast.fast == nil {
				t.Fatal("fast tables not built for a small-M strict code")
			}
			sf, ss := fast.NewScratch(), slow.NewScratch()
			words := randomWords(fast, r, 6)
			n := fast.cfg.Geometry.NumSymbols
			check := func(rem uint64, w wideint.U192, what string, got, want []correction) {
				t.Helper()
				if len(got) == 0 && len(want) == 0 {
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rem %d word %v %s:\n fast %+v\n slow %+v", rem, w, what, got, want)
				}
			}
			for rem := uint64(1); rem < fast.cfg.M; rem++ {
				w := words[rem%uint64(len(words))]
				sf.symCacheOK, ss.symCacheOK = false, false
				check(rem, w, "ssc",
					fast.sscCandidates(nil, sf, w, rem),
					slow.sscCandidates(nil, ss, w, rem))
				for sym := 0; sym < n; sym++ {
					check(rem, w, "sscAt",
						fast.sscCandidatesAt(nil, sf, w, rem, sym),
						slow.sscCandidatesAt(nil, ss, w, rem, sym))
				}
				check(rem, w, "dec",
					fast.decCandidates(nil, sf, w, rem),
					slow.decCandidates(nil, ss, w, rem))
				for devA := 0; devA < n; devA++ {
					for devB := devA + 1; devB < n; devB++ {
						check(rem, w, "bfbfAt",
							fast.bfbfCandidatesAt(nil, sf, w, rem, devA, devB),
							slow.bfbfCandidatesAt(nil, ss, w, rem, devA, devB))
					}
				}
			}
			// The zero-remainder phase's DEC pairs.
			for _, w := range words {
				check(0, w, "decZero", fast.decZeroCandidates(nil, w), slow.decZeroCandidates(nil, w))
			}
		})
	}
}

// TestChipKillPlus1Differential pins the pin-quiet single-candidate
// source (the one fast-path branch inside chipKillPlus1Candidates) to
// the enumeration, over sampled remainders and all hypotheses.
func TestChipKillPlus1Differential(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))
	slow := c.WithEnumeratedCandidates()
	sf, ss := c.NewScratch(), slow.NewScratch()
	words := randomWords(c, r, 4)
	patterns := pinDeltaPatterns()
	n := c.cfg.Geometry.NumSymbols
	for rem := uint64(1); rem < c.cfg.M; rem += 41 {
		w := words[rem%uint64(len(words))]
		sf.symCacheOK, ss.symCacheOK = false, false
		for devA := 0; devA < n; devA++ {
			for devB := 0; devB < n; devB++ {
				if devA == devB {
					continue
				}
				for pin := 0; pin < 4; pin++ {
					got := c.chipKillPlus1Candidates(nil, sf, w, rem, devA, devB, pin, patterns)
					want := slow.chipKillPlus1Candidates(nil, ss, w, rem, devA, devB, pin, patterns)
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("rem %d (%d,%d,pin%d):\n fast %+v\n slow %+v", rem, devA, devB, pin, got, want)
					}
				}
			}
		}
	}
}

// TestFastDecodeEquivalence is the end-to-end differential: random lines
// under random ≤2-word, ≤2-symbol corruptions decode to identical data
// AND identical reports (status, model, iteration billing) through the
// fast path (hint tables + incremental MAC) and the legacy enumeration.
func TestFastDecodeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for _, tc := range fastTestCodes(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fast := tc.c.WithMaxIterations(20000)
			slow := fast.WithEnumeratedCandidates()
			if slow.macInc != nil || slow.fast != nil {
				t.Fatal("WithEnumeratedCandidates left the fast path armed")
			}
			sf, ss := fast.NewScratch(), slow.NewScratch()
			S := fast.cfg.Geometry.SymbolBits
			for trial := 0; trial < 300; trial++ {
				var data [LineBytes]byte
				r.Read(data[:])
				l := fast.EncodeLine(&data)
				for _, wi := range r.Perm(len(l.Words))[:1+r.Intn(2)] {
					for s := 0; s < 1+r.Intn(2); s++ {
						sym := r.Intn(fast.cfg.Geometry.NumSymbols)
						l.Words[wi] = l.Words[wi].WithField(sym*S, S, uint64(r.Intn(1<<uint(S))))
					}
				}
				gotData, gotRep := fast.DecodeLineScratch(l, sf)
				wantData, wantRep := slow.DecodeLineScratch(l, ss)
				if gotData != wantData || gotRep != wantRep {
					t.Fatalf("trial %d:\n fast %+v\n slow %+v", trial, gotRep, wantRep)
				}
			}
		})
	}
}

// heldTableBytes is the footprint of the tables a code holds, counted
// from their lengths: 4-byte offsets and sscAt entries, 8-byte
// candidates and hints.
func heldTableBytes(c *Code) int {
	n := 4*(len(c.decHints.idx)+len(c.bfbfHints.idx)) + 8*(len(c.decHints.items)+len(c.bfbfHints.items))
	if f := c.fast; f != nil {
		n += 4*(len(f.ssc.idx)+len(f.sscAt)+len(f.dec.idx)+len(f.bfbf.idx)) +
			8*(len(f.ssc.items)+len(f.dec.items)+len(f.bfbf.items))
	}
	return n
}

// TestHintTableBytes pins the memory-budget contract: HintTableBytes
// counts every table a code holds, within the few-MB budget. A fast code
// holds its fast tables and no hint table; its enumerated copy holds the
// hint tables instead, as m131049 and the DisablePrune ablation do.
func TestHintTableBytes(t *testing.T) {
	const budget = 4 << 20
	check := func(name string, c *Code, fast bool) {
		t.Helper()
		b := c.HintTableBytes()
		if b <= 0 || b != heldTableBytes(c) {
			t.Errorf("%s: HintTableBytes %d, tables held %d bytes", name, b, heldTableBytes(c))
		}
		if b > budget {
			t.Errorf("%s: tables %d bytes exceed %d budget", name, b, budget)
		}
		if (c.fast != nil) != fast {
			t.Errorf("%s: fast tables built = %v, want %v", name, c.fast != nil, fast)
		}
		if hints := c.decHints.idx != nil || c.bfbfHints.idx != nil; hints == fast {
			t.Errorf("%s: hint tables built = %v beside fast tables = %v", name, hints, fast)
		}
	}
	for _, tc := range fastTestCodes(t) {
		check(tc.name, tc.c, true)
		check(tc.name+"/enumerated", tc.c.WithEnumeratedCandidates(), false)
	}
	zr := ConfigM2005()
	zr.TryZeroRemainder = true
	check("m2005-zr", MustNew(zr, mac.MustSipHash(testKey, 40)), true)
	check("m131049", MustNew(ConfigM131049(), mac.MustSipHash(testKey, 60)), false)
	ablated := Config{Geometry: ConfigM2005().Geometry, M: 2005, DisablePrune: true}
	check("m2005/DisablePrune", MustNew(ablated, mac.MustSipHash(testKey, 40)), false)
}

// TestNewAllocations holds construction to the tables it keeps: New
// allocates at most 1.25x HintTableBytes in at most 40 allocations, so
// no build detour allocates tables only to throw them away.
func TestNewAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		bits int
	}{
		{"m2005", ConfigM2005(), 40},
		{"m131049", ConfigM131049(), 60},
	} {
		m := mac.MustSipHash(testKey, tc.bits)
		held := MustNew(tc.cfg, m).HintTableBytes()
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			MustNew(tc.cfg, m)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: New allocates %d bytes in %d allocations; tables hold %d bytes", tc.name, bytes, allocs, held)
		if float64(bytes) > 1.25*float64(held) {
			t.Errorf("%s: New allocates %d bytes, over 1.25x the %d bytes it keeps", tc.name, bytes, held)
		}
		if allocs > 40 {
			t.Errorf("%s: New makes %d allocations, over 40", tc.name, allocs)
		}
	}
}
