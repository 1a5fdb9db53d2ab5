package poly

import (
	"math/rand"
	"reflect"
	"testing"

	"polyecc/internal/mac"
	"polyecc/internal/wideint"
)

// fastTestCodes builds each small-M configuration with its fast tables
// (the default) and the remainder stride to sample: m511 is exhaustive,
// the larger multipliers sampled.
func fastTestCodes(t *testing.T) []struct {
	name   string
	c      *Code
	stride uint64
} {
	t.Helper()
	return []struct {
		name   string
		c      *Code
		stride uint64
	}{
		{"m511", MustNew(ConfigM511(), mac.MustSipHash(testKey, 56)), 1},
		{"m1021", MustNew(ConfigM1021(), mac.MustSipHash(testKey, 48)), 7},
		{"m2005", MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40)), 13},
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
// legacy runtime enumeration (Code.WithEnumeratedCandidates), across
// every remainder of m511 and sampled remainders of m1021/m2005.
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
			for rem := uint64(1); rem < fast.cfg.M; rem += tc.stride {
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
				if fast.decHints != nil {
					check(rem, w, "dec",
						fast.decCandidates(nil, sf, w, rem),
						slow.decCandidates(nil, ss, w, rem))
				}
				if fast.bfbfHints != nil {
					check(rem, w, "bfbf",
						fast.bfbfCandidates(nil, sf, w, rem),
						slow.bfbfCandidates(nil, ss, w, rem))
					for devA := 0; devA < n; devA++ {
						for devB := devA + 1; devB < n; devB++ {
							check(rem, w, "bfbfAt",
								fast.bfbfCandidatesAt(nil, sf, w, rem, devA, devB),
								slow.bfbfCandidatesAt(nil, ss, w, rem, devA, devB))
						}
					}
				}
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

// TestHintTableBytes pins the memory-budget contract: every small-M
// codec carries fast tables within the few-MB budget, and the legacy
// regimes carry none.
func TestHintTableBytes(t *testing.T) {
	const budget = 4 << 20
	for _, tc := range fastTestCodes(t) {
		b := tc.c.HintTableBytes()
		if b <= 0 {
			t.Errorf("%s: no fast tables (%d bytes)", tc.name, b)
		}
		if b > budget {
			t.Errorf("%s: fast tables %d bytes exceed %d budget", tc.name, b, budget)
		}
		if tc.c.WithEnumeratedCandidates().HintTableBytes() != 0 {
			t.Errorf("%s: enumerated copy still reports table bytes", tc.name)
		}
	}
	large := MustNew(ConfigM131049(), mac.MustSipHash(testKey, 60))
	if large.HintTableBytes() != 0 {
		t.Errorf("m131049 built fast tables; large-M must fall back to enumeration")
	}
	ablated := Config{Geometry: ConfigM2005().Geometry, M: 2005, DisablePrune: true}
	if MustNew(ablated, mac.MustSipHash(testKey, 40)).HintTableBytes() != 0 {
		t.Errorf("DisablePrune ablation built fast tables")
	}
}
