package poly

import (
	"math/rand"
	"testing"

	"polyecc/internal/mac"
	"polyecc/internal/telemetry"
)

func testCodeM2005(t testing.TB) *Code {
	t.Helper()
	key := [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}
	return MustNew(ConfigM2005(), mac.MustSipHash(key, 40))
}

// TestScratchZeroAllocs is the contract the bench gate enforces repo-wide:
// encode and clean decode through a Scratch never touch the heap.
func TestScratchZeroAllocs(t *testing.T) {
	c := testCodeM2005(t)
	s := c.NewScratch()
	var data [LineBytes]byte
	rand.New(rand.NewSource(3)).Read(data[:])

	if n := testing.AllocsPerRun(200, func() {
		c.EncodeLineScratch(&data, s)
	}); n != 0 {
		t.Errorf("EncodeLineScratch: %v allocs/op, want 0", n)
	}

	l := c.EncodeLine(&data)
	if n := testing.AllocsPerRun(200, func() {
		c.DecodeLineScratch(l, s)
	}); n != 0 {
		t.Errorf("DecodeLineScratch (clean): %v allocs/op, want 0", n)
	}

	b := c.ToBurst(l)
	if n := testing.AllocsPerRun(200, func() {
		c.DecodeLineScratch(c.FromBurstScratch(&b, s), s)
	}); n != 0 {
		t.Errorf("FromBurstScratch+DecodeLineScratch: %v allocs/op, want 0", n)
	}

	// The corrected path reuses the same buffers once they have grown to
	// the working-set size; after a warmup decode it is allocation-free
	// too (not required by the gate, but worth keeping).
	corrupt := b
	corrupt[5] ^= 0x3
	c.DecodeLineScratch(c.FromBurstScratch(&corrupt, s), s)
	if n := testing.AllocsPerRun(100, func() {
		c.DecodeLineScratch(c.FromBurstScratch(&corrupt, s), s)
	}); n != 0 {
		t.Errorf("DecodeLineScratch (corrected): %v allocs/op, want 0", n)
	}
}

// TestScratchMatchesLegacy cross-checks the two entry points on random
// corrupted lines beyond the pinned golden vectors.
func TestScratchMatchesLegacy(t *testing.T) {
	c := testCodeM2005(t)
	s := c.NewScratch()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var data [LineBytes]byte
		r.Read(data[:])
		b := c.ToBurst(c.EncodeLine(&data))
		// Random burst corruption of 0..4 bytes, in and out of model.
		for k := r.Intn(5); k > 0; k-- {
			b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
		}
		wantData, wantRep := c.DecodeLine(c.FromBurst(&b))
		gotData, gotRep := c.DecodeLineScratch(c.FromBurstScratch(&b, s), s)
		if gotData != wantData {
			t.Fatalf("trial %d: scratch decode bytes diverge", trial)
		}
		if gotRep.Status != wantRep.Status || gotRep.Model != wantRep.Model ||
			gotRep.Iterations != wantRep.Iterations || gotRep.PerModelTrials != wantRep.PerModelTrials {
			t.Fatalf("trial %d: scratch report %+v, legacy %+v", trial, gotRep, wantRep)
		}
	}
}

// TestFinishCandidatesOrdering pins the hand-rolled insertion sort to the
// original sort.SliceStable ordering on randomized candidate lists.
func TestFinishCandidatesOrdering(t *testing.T) {
	c := testCodeM2005(t)
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		mk := func() []correction {
			out := make([]correction, n)
			for i := range out {
				// Duplicate costs on purpose so stability matters.
				out[i] = corr1(r.Intn(4), int64(r.Intn(4)-2))
				out[i].valid = r.Intn(2) == 0
				if r.Intn(3) == 0 {
					out[i] = corr2(r.Intn(4), int64(r.Intn(4)-2), 4+r.Intn(4), int64(r.Intn(4)-2))
					out[i].valid = r.Intn(2) == 0
				}
			}
			return out
		}
		a := mk()
		b := make([]correction, len(a))
		copy(b, a)

		// Run only the ordering halves: insertion sort vs the legacy
		// reflect-based stable sort.
		less := func(x, y *correction) bool {
			if x.valid != y.valid {
				return x.valid
			}
			return x.cost() < y.cost()
		}
		for i := 1; i < len(a); i++ {
			co := a[i]
			j := i
			for j > 0 && less(&co, &a[j-1]) {
				a[j] = a[j-1]
				j--
			}
			a[j] = co
		}
		c.sortCandidatesLegacy(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order diverges at %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestScratchGeometryGuard verifies the misuse panic.
func TestScratchGeometryGuard(t *testing.T) {
	c8 := testCodeM2005(t)
	key := [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}
	c16 := MustNew(ConfigM131049(), mac.MustSipHash(key, 60))
	s := c16.NewScratch()
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic decoding with a mismatched Scratch")
		}
	}()
	var data [LineBytes]byte
	c8.EncodeLineScratch(&data, s)
}

// TestWithMetricsSharesTables verifies the shallow instrumented copy
// decodes identically and feeds the collector, leaving the receiver
// uninstrumented.
func TestWithMetricsSharesTables(t *testing.T) {
	c := testCodeM2005(t)
	m := telemetry.NewDecodeMetrics()
	ci := c.WithMetrics(m)
	var data [LineBytes]byte
	rand.New(rand.NewSource(5)).Read(data[:])
	l := c.EncodeLine(&data)
	got, rep := ci.DecodeLine(l)
	if got != data || rep.Status != StatusClean {
		t.Fatalf("instrumented copy misdecoded: %+v", rep)
	}
	if m.Clean.Value() != 1 || ci.Metrics() != m {
		t.Errorf("instrumented copy did not feed its collector: clean=%d", m.Clean.Value())
	}
	if c.Metrics() != nil {
		t.Error("WithMetrics mutated the receiver")
	}
}
