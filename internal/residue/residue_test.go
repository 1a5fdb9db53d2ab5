package residue

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulModAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := r.Uint64(), r.Uint64()
		m := r.Uint64()%100000 + 2
		got := MulMod(a, b, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		if got != want.Uint64() {
			t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, m, got, want)
		}
	}
}

func TestPowModAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		b, e := r.Uint64()%1000, r.Uint64()%500
		m := r.Uint64()%100000 + 2
		got := PowMod(b, e, m)
		want := new(big.Int).Exp(new(big.Int).SetUint64(b), new(big.Int).SetUint64(e), new(big.Int).SetUint64(m))
		if got != want.Uint64() {
			t.Fatalf("PowMod(%d,%d,%d) = %d, want %d", b, e, m, got, want)
		}
	}
}

func TestModInverse(t *testing.T) {
	for _, m := range []uint64{3, 511, 1021, 2005, 2041, 131049} {
		for a := uint64(1); a < m && a < 5000; a++ {
			inv, ok := ModInverse(a, m)
			g := gcd(a, m)
			if g != 1 {
				if ok {
					t.Fatalf("ModInverse(%d,%d) should not exist (gcd=%d)", a, m, g)
				}
				continue
			}
			if !ok {
				t.Fatalf("ModInverse(%d,%d) should exist", a, m)
			}
			if MulMod(a, inv, m) != 1 {
				t.Fatalf("ModInverse(%d,%d)=%d is wrong", a, m, inv)
			}
		}
	}
	if _, ok := ModInverse(4, 2); ok {
		t.Error("inverse mod 2 of even number should not exist")
	}
	if _, ok := ModInverse(1, 1); ok {
		t.Error("modulus 1 should be rejected")
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// The paper's §V-D example: Inv(2^8) = 1026 and Inv(2^16) = 51 mod 2005.
func TestPow2InversesPaperValues(t *testing.T) {
	inv, err := Pow2Inverses(2005, DDR5x8)
	if err != nil {
		t.Fatal(err)
	}
	if inv[0] != 1 {
		t.Errorf("Inv(2^0) = %d, want 1", inv[0])
	}
	if inv[1] != 1026 {
		t.Errorf("Inv(2^8) = %d, want 1026", inv[1])
	}
	if inv[2] != 51 {
		t.Errorf("Inv(2^16) = %d, want 51", inv[2])
	}
	for s := 0; s < DDR5x8.NumSymbols; s++ {
		pow := PowMod(2, uint64(DDR5x8.SymbolOffset(s)), 2005)
		if MulMod(pow, inv[s], 2005) != 1 {
			t.Errorf("symbol %d inverse check failed", s)
		}
	}
}

func TestPow2InversesEvenRejected(t *testing.T) {
	if _, err := Pow2Inverses(2004, DDR5x8); err == nil {
		t.Fatal("even multiplier should be rejected")
	}
}

func TestSignedMod(t *testing.T) {
	cases := []struct {
		d    int64
		m    uint64
		want uint64
	}{
		{0, 2005, 0},
		{86, 2005, 86},
		{-1, 2005, 2004},
		{-2005, 2005, 0},
		{2006, 2005, 1},
		{-4011, 2005, 2004},
	}
	for _, c := range cases {
		if got := SignedMod(c.d, c.m); got != c.want {
			t.Errorf("SignedMod(%d,%d) = %d, want %d", c.d, c.m, got, c.want)
		}
	}
}

// The paper's §V-C example: error integer 16<<8 = 4096 has remainder 86
// mod 2005, and so does 86 itself in symbol 0.
func TestSymbolErrorRemainderPaperExample(t *testing.T) {
	if got := SymbolErrorRemainder(16, 1, 2005, DDR5x8); got != 86 {
		t.Errorf("remainder of +16 in symbol 1 = %d, want 86", got)
	}
	if got := SymbolErrorRemainder(86, 0, 2005, DDR5x8); got != 86 {
		t.Errorf("remainder of +86 in symbol 0 = %d, want 86", got)
	}
}

// The paper's §V-C/§V-D example: with M=2005, remainder 86 has exactly two
// candidates: delta 86 in symbol 0 and delta 16 in symbol 1. Symbol 2
// yields 376 which does not fit an 8-bit symbol and must be pruned.
func TestSymbolCandidatesPaperExample(t *testing.T) {
	inv, err := Pow2Inverses(2005, DDR5x8)
	if err != nil {
		t.Fatal(err)
	}
	got := SymbolCandidates(86, 2005, DDR5x8, inv)
	want := []Candidate{{Symbol: 0, Delta: 86}, {Symbol: 1, Delta: 16}}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestSymbolCandidatesZeroRemainder(t *testing.T) {
	inv, _ := Pow2Inverses(2005, DDR5x8)
	if got := SymbolCandidates(0, 2005, DDR5x8, inv); got != nil {
		t.Fatalf("zero remainder should have no candidates, got %v", got)
	}
}

// Every injected single-symbol error must appear among the candidates of
// its own remainder (completeness of Eq. 2).
func TestSymbolCandidatesComplete(t *testing.T) {
	for _, m := range []uint64{511, 1021, 2005, 2041} {
		inv, err := Pow2Inverses(m, DDR5x8)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 3000; i++ {
			s := r.Intn(DDR5x8.NumSymbols)
			d := int64(r.Intn(255) + 1)
			if r.Intn(2) == 0 {
				d = -d
			}
			rem := SymbolErrorRemainder(d, s, m, DDR5x8)
			found := false
			for _, c := range SymbolCandidates(rem, m, DDR5x8, inv) {
				if c.Symbol == s && c.Delta == d {
					found = true
				}
			}
			if !found {
				t.Fatalf("M=%d: error (sym %d, delta %d, rem %d) not among candidates", m, s, d, rem)
			}
		}
	}
}

func TestCheckMultiplierRejects(t *testing.T) {
	for _, m := range []uint64{0, 1, 2, 4, 100, 509, 510} {
		if ok, _ := CheckMultiplier(m, DDR5x8); ok {
			t.Errorf("multiplier %d should be rejected for 8-bit symbols", m)
		}
	}
	if ok, _ := CheckMultiplier(511, Geometry{NumSymbols: 10, SymbolBits: 40}); ok {
		t.Error("invalid geometry should be rejected")
	}
}

// Table III, M=511: every one of the 510 nonzero remainders has aliasing
// degree exactly 10 (one error per symbol).
func TestTableIIIMultiplier511(t *testing.T) {
	ok, degrees := CheckMultiplier(511, DDR5x8)
	if !ok {
		t.Fatal("511 must define a code")
	}
	st := Stats(degrees)
	if st.Remainders != 510 {
		t.Errorf("remainders = %d, want 510", st.Remainders)
	}
	if st.Min != 10 || st.Max != 10 {
		t.Errorf("degrees min/max = %d/%d, want 10/10", st.Min, st.Max)
	}
	if st.Errors != 5100 {
		t.Errorf("total errors = %d, want 5100", st.Errors)
	}
	if st.Std != 0 {
		t.Errorf("std = %v, want 0", st.Std)
	}
}

// Table III, M=2005: the paper's exact aliasing histogram.
func TestTableIIIMultiplier2005(t *testing.T) {
	ok, degrees := CheckMultiplier(2005, DDR5x8)
	if !ok {
		t.Fatal("2005 must define a code")
	}
	st := Stats(degrees)
	want := map[int]int{1: 368, 2: 520, 3: 528, 4: 328, 5: 130, 6: 22, 7: 2}
	for deg, n := range want {
		if st.Histogram[deg] != n {
			t.Errorf("degree %d: %d remainders, want %d", deg, st.Histogram[deg], n)
		}
	}
	if st.Remainders != 1898 {
		t.Errorf("remainders = %d, want 1898", st.Remainders)
	}
	if st.Max != 7 {
		t.Errorf("max degree = %d, want 7", st.Max)
	}
	// Paper Table IV: SSC aliasing for M=2005 is 2.69 ± 1.23.
	if st.Avg < 2.65 || st.Avg > 2.72 {
		t.Errorf("avg degree = %v, want ≈2.69", st.Avg)
	}
	if st.Std < 1.15 || st.Std > 1.30 {
		t.Errorf("std = %v, want ≈1.23", st.Std)
	}
}

// Table IV, M=1021: SSC aliasing 5 ± 1.58 over 1020 remainders.
func TestTableIVMultiplier1021(t *testing.T) {
	ok, degrees := CheckMultiplier(1021, DDR5x8)
	if !ok {
		t.Fatal("1021 must define a code")
	}
	st := Stats(degrees)
	if st.Remainders != 1020 {
		t.Errorf("remainders = %d, want 1020", st.Remainders)
	}
	if st.Avg != 5 {
		t.Errorf("avg = %v, want 5", st.Avg)
	}
	if st.Std < 1.5 || st.Std > 1.7 {
		t.Errorf("std = %v, want ≈1.58", st.Std)
	}
}

// Table IV, M=131049 with 16-bit symbols: SSC aliasing ≈ 10 ± 0.04 with
// max 11 — the relaxed regime where a remainder can have two candidates
// within one symbol (131049 < 2^17-1), so the strict Algorithm 1 check
// rejects it while the relaxed recoverability check admits it.
func TestTableIVMultiplier131049(t *testing.T) {
	if testing.Short() {
		t.Skip("16-bit symbol enumeration is slow")
	}
	if ok, _ := CheckMultiplier(131049, DDR5x16); ok {
		t.Error("131049 should fail the strict within-symbol-uniqueness check")
	}
	ok, degrees := CheckMultiplierRelaxed(131049, DDR5x16)
	if !ok {
		t.Fatal("131049 must define a 16-bit-symbol code under relaxed admissibility")
	}
	st := Stats(degrees)
	if st.Errors != 10*2*65535 {
		t.Errorf("errors = %d, want %d", st.Errors, 10*2*65535)
	}
	if st.Avg < 9.9 || st.Avg > 10.1 {
		t.Errorf("avg = %v, want ≈10", st.Avg)
	}
	if st.Max < 10 || st.Max > 11 {
		t.Errorf("max = %d, want 10..11", st.Max)
	}
}

// The paper: "the smallest multiplier with 8-bit symbols is 511".
func TestSmallestMultiplier(t *testing.T) {
	if got := SmallestMultiplier(DDR5x8, 1000); got != 511 {
		t.Fatalf("smallest 8-bit-symbol multiplier = %d, want 511", got)
	}
	// 4-bit symbols: smallest is 2^5-1 = 31.
	if got := SmallestMultiplier(Geometry{NumSymbols: 20, SymbolBits: 4}, 100); got != 31 {
		t.Fatalf("smallest 4-bit-symbol multiplier = %d, want 31", got)
	}
}

// MAC bits per codeword for the paper's configurations (§V-A, Table IV):
// 56, 48, 40-bit cacheline MACs over 8 codewords; 60-bit over 4.
func TestMACBitsPaperConfigs(t *testing.T) {
	cases := []struct {
		m        uint64
		g        Geometry
		dataBits int
		perWord  int
		words    int
		lineMAC  int
	}{
		{511, DDR5x8, 64, 7, 8, 56},
		{1021, DDR5x8, 64, 6, 8, 48},
		{2005, DDR5x8, 64, 5, 8, 40},
		{131049, DDR5x16, 128, 15, 4, 60},
	}
	for _, c := range cases {
		if got := MACBits(c.m, c.g, c.dataBits); got != c.perWord {
			t.Errorf("MACBits(%d) = %d, want %d", c.m, got, c.perWord)
		}
		if c.perWord*c.words != c.lineMAC {
			t.Errorf("M=%d: line MAC = %d, want %d", c.m, c.perWord*c.words, c.lineMAC)
		}
	}
}

func TestSolvePairRecoversInjectedPairs(t *testing.T) {
	m := uint64(2005)
	inv, _ := Pow2Inverses(m, DDR5x8)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		sA := r.Intn(DDR5x8.NumSymbols)
		sB := r.Intn(DDR5x8.NumSymbols)
		if sA == sB {
			continue
		}
		dA := int64(r.Intn(255) + 1)
		dB := int64(r.Intn(255) + 1)
		if r.Intn(2) == 0 {
			dA = -dA
		}
		if r.Intn(2) == 0 {
			dB = -dB
		}
		rem := SymbolErrorRemainder(dA, sA, m, DDR5x8) + SymbolErrorRemainder(dB, sB, m, DDR5x8)
		rem %= m
		got, ok := SolvePair(rem, sA, sB, dB, m, DDR5x8, inv)
		if !ok || got != dA {
			t.Fatalf("SolvePair(rem=%d, sA=%d, sB=%d, dB=%d) = (%d,%v), want (%d,true)",
				rem, sA, sB, dB, got, ok, dA)
		}
	}
}

func TestSolvePairRejectsZeroDelta(t *testing.T) {
	m := uint64(2005)
	inv, _ := Pow2Inverses(m, DDR5x8)
	// rem chosen so that the residual after removing dB is zero.
	dB := int64(5)
	rem := SymbolErrorRemainder(dB, 3, m, DDR5x8)
	if _, ok := SolvePair(rem, 1, 3, dB, m, DDR5x8, inv); ok {
		t.Fatal("zero residual must not produce a candidate")
	}
}

// Search over the 9-bit budget must find 511 as an admissible multiplier
// and report its MAC bits.
func TestSearchNineBit(t *testing.T) {
	res := Search(9, 9, DDR5x8, 64)
	if len(res) == 0 {
		t.Fatal("no 9-bit multipliers found")
	}
	found := false
	for _, r := range res {
		if r.M == 511 {
			found = true
			if r.MACBits != 7 {
				t.Errorf("MACBits(511) = %d, want 7", r.MACBits)
			}
			if r.Stats.Avg != 10 {
				t.Errorf("avg degree of 511 = %v, want 10", r.Stats.Avg)
			}
		}
		if r.M%2 == 0 || r.M < 511 {
			t.Errorf("inadmissible multiplier %d in results", r.M)
		}
	}
	if !found {
		t.Error("511 missing from search results")
	}
}

// Property: for admissible multipliers, every nonzero remainder maps to
// at most one candidate per symbol, and applying the candidate's
// remainder reproduces the input remainder.
func TestPropCandidateConsistency(t *testing.T) {
	m := uint64(2005)
	inv, _ := Pow2Inverses(m, DDR5x8)
	f := func(remRaw uint64) bool {
		rem := remRaw%(m-1) + 1
		cands := SymbolCandidates(rem, m, DDR5x8, inv)
		seen := make(map[int]bool)
		for _, c := range cands {
			if seen[c.Symbol] {
				return false
			}
			seen[c.Symbol] = true
			if SymbolErrorRemainder(c.Delta, c.Symbol, m, DDR5x8) != rem {
				return false
			}
			if c.Delta == 0 || c.Delta > 255 || c.Delta < -255 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: SignedMod is a homomorphism for addition.
func TestPropSignedModAdd(t *testing.T) {
	f := func(a, b int32, mRaw uint32) bool {
		m := uint64(mRaw%100000) + 2
		lhs := SignedMod(int64(a)+int64(b), m)
		rhs := (SignedMod(int64(a), m) + SignedMod(int64(b), m)) % m
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil)
	if st.Remainders != 0 || st.Errors != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestDegreesOfInts(t *testing.T) {
	d := DegreesOfInts([]uint64{5, 5, 7, 0})
	if d[5] != 2 || d[7] != 1 || d[0] != 1 {
		t.Fatalf("DegreesOfInts = %v", d)
	}
}

func BenchmarkCheckMultiplier2005(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CheckMultiplier(2005, DDR5x8)
	}
}

func BenchmarkSymbolCandidates(b *testing.B) {
	inv, _ := Pow2Inverses(2005, DDR5x8)
	var n int
	for i := 0; i < b.N; i++ {
		n += len(SymbolCandidates(uint64(i)%2004+1, 2005, DDR5x8, inv))
	}
	_ = n
}

// Property: every Search result passes CheckMultiplier and reports a
// consistent MAC budget.
func TestPropSearchResultsAdmissible(t *testing.T) {
	for _, r := range Search(10, 10, DDR5x8, 64) {
		ok, degrees := CheckMultiplier(r.M, DDR5x8)
		if !ok {
			t.Fatalf("Search returned inadmissible multiplier %d", r.M)
		}
		st := Stats(degrees)
		if st.Avg != r.Stats.Avg || st.Max != r.Stats.Max {
			t.Fatalf("M=%d: stats mismatch", r.M)
		}
		if r.MACBits != 80-64-10 {
			t.Fatalf("M=%d: MAC bits %d", r.M, r.MACBits)
		}
	}
}

// Admissible against Algorithm 1's definitions, evaluated symbol by
// symbol through SymbolErrorRemainder and Eq. 2: a relaxed code recovers
// every signed delta from its remainder, and a strict one also gives each
// delta of a symbol its own remainder. Checked for every M < 3000 on the
// 4-, 8- and 16-bit geometries, around the 16-bit strict threshold
// 2^17-1, and for the Table IV multipliers.
func TestAdmissibleDefinition(t *testing.T) {
	oracle := func(m uint64, g Geometry, relaxed bool) bool {
		if g.Validate() != nil || m < 2 {
			return false
		}
		inv, err := Pow2Inverses(m, g)
		if err != nil {
			return false
		}
		maxDelta := int64(1)<<g.SymbolBits - 1
		for s := 0; s < g.NumSymbols; s++ {
			seen := make([]bool, m)
			for d := -maxDelta; d <= maxDelta; d++ {
				if d == 0 {
					continue
				}
				rem := SymbolErrorRemainder(d, s, m, g)
				if e := int64(MulMod(rem, inv[s], m)); d != e && d != e-int64(m) {
					return false
				}
				if !relaxed && seen[rem] {
					return false
				}
				seen[rem] = true
			}
		}
		return true
	}
	geoms := []Geometry{{NumSymbols: 10, SymbolBits: 4}, DDR5x8, DDR5x16}
	check := func(m uint64, g Geometry) {
		t.Helper()
		for _, relaxed := range []bool{false, true} {
			if got, want := Admissible(m, g, relaxed), oracle(m, g, relaxed); got != want {
				t.Fatalf("M=%d %+v relaxed=%v: Admissible %v, definition %v", m, g, relaxed, got, want)
			}
		}
	}
	for _, g := range geoms {
		for m := uint64(0); m < 3000; m++ {
			check(m, g)
		}
		check(131049, g)
	}
	for _, m := range []uint64{131069, 131071, 131073} {
		check(m, DDR5x16)
	}
	if Admissible(511, Geometry{NumSymbols: 10, SymbolBits: 40}, true) {
		t.Error("invalid geometry admitted")
	}
}
