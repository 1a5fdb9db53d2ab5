package poly

import (
	"math/rand"
	"sync"
	"testing"

	"polyecc/internal/mac"
	"polyecc/internal/telemetry"
)

// corruptSymbol flips one data symbol of word w.
func corruptSymbol(l Line, w, sym int, delta uint64) Line {
	bad := l.Clone()
	old := bad.Words[w].Field(sym*8, 8)
	bad.Words[w] = bad.Words[w].WithField(sym*8, 8, old^delta)
	return bad
}

// tripleCorrupt puts a three-symbol error in every codeword — beyond
// every enabled model, guaranteeing a DUE.
func tripleCorrupt(l Line, r *rand.Rand) Line {
	bad := l.Clone()
	for w := range bad.Words {
		for _, s := range []int{0, 4, 7} {
			old := bad.Words[w].Field(s*8, 8)
			bad.Words[w] = bad.Words[w].WithField(s*8, 8, old^uint64(1+r.Intn(255)))
		}
	}
	return bad
}

func TestStatusStringUnknown(t *testing.T) {
	if got := Status(42).String(); got != "unknown" {
		t.Fatalf("Status(42) = %q, want unknown", got)
	}
	if got := FaultModel(99).String(); got != "FaultModel(99)" {
		t.Fatalf("FaultModel(99) = %q", got)
	}
}

// PerModelTrials must partition Iterations exactly, and the matched
// model must have been billed at least one trial.
func TestPerModelTrialsPartitionIterations(t *testing.T) {
	c := newM2005(t)
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		data := randLine(r)
		l := c.EncodeLine(&data)
		bad := corruptSymbol(l, r.Intn(c.Words()), 2+r.Intn(6), uint64(1+r.Intn(255)))
		got, rep := c.DecodeLine(bad)
		if rep.Status != StatusCorrected || got != data {
			t.Fatalf("trial %d: %+v", i, rep)
		}
		sum := 0
		for _, n := range rep.PerModelTrials {
			sum += n
		}
		if sum != rep.Iterations {
			t.Fatalf("per-model trials sum %d != iterations %d", sum, rep.Iterations)
		}
		if rep.Iterations > 0 && rep.TrialsFor(rep.Model) == 0 {
			t.Fatalf("matched model %v billed no trials: %+v", rep.Model, rep)
		}
	}
	var rep Report
	if rep.TrialsFor(FaultModel(77)) != 0 {
		t.Fatal("out-of-range model should report 0 trials")
	}
}

// An uninstrumented Code must not stamp Elapsed (no clock reads on the
// bare path); an instrumented one must.
func TestElapsedGatedOnInstrumentation(t *testing.T) {
	bare := newM2005(t)
	r := rand.New(rand.NewSource(22))
	data := randLine(r)
	if _, rep := bare.DecodeLine(bare.EncodeLine(&data)); rep.Elapsed != 0 {
		t.Fatalf("bare code stamped Elapsed = %v", rep.Elapsed)
	}

	cfg := ConfigM2005()
	cfg.Metrics = telemetry.NewDecodeMetrics()
	inst := MustNew(cfg, mac.MustSipHash(testKey, 40))
	if _, rep := inst.DecodeLine(inst.EncodeLine(&data)); rep.Elapsed <= 0 {
		t.Fatalf("instrumented code Elapsed = %v, want > 0", rep.Elapsed)
	}
	if inst.Metrics() != cfg.Metrics {
		t.Fatal("Metrics() should return the attached collector")
	}
}

// The trace hook must see every trial in order: trial numbers start at
// 1 and never decrease, only the final trial reports a MAC match, and
// the matching trial's model equals the report's.
func TestTraceHookInvocationOrder(t *testing.T) {
	var events []TraceEvent
	cfg := ConfigM2005()
	cfg.Trace = func(e TraceEvent) { events = append(events, e) }
	c := MustNew(cfg, mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(23))

	// Clean decode: no trials, no events.
	data := randLine(r)
	l := c.EncodeLine(&data)
	if _, rep := c.DecodeLine(l); rep.Status != StatusClean {
		t.Fatalf("clean decode: %+v", rep)
	}
	if len(events) != 0 {
		t.Fatalf("clean decode emitted %d trace events", len(events))
	}

	// Corrected decode: events cover exactly trials 1..Iterations.
	bad := corruptSymbol(l, 3, 5, 0x41)
	got, rep := c.DecodeLine(bad)
	if rep.Status != StatusCorrected || got != data {
		t.Fatalf("corrected decode: %+v", rep)
	}
	if len(events) == 0 {
		t.Fatal("no trace events for a corrected decode")
	}
	prev := 0
	matches := 0
	for i, e := range events {
		if e.Trial < prev || e.Trial > rep.Iterations || e.Trial < 1 {
			t.Fatalf("event %d: trial %d out of order (prev %d, total %d)", i, e.Trial, prev, rep.Iterations)
		}
		prev = e.Trial
		if e.Word < 0 || e.Word >= c.Words() || e.Candidate < 0 {
			t.Fatalf("event %d: bad coordinates %+v", i, e)
		}
		if e.MACMatch {
			matches++
			if e.Trial != rep.Iterations {
				t.Fatalf("MAC match on trial %d, but decode took %d", e.Trial, rep.Iterations)
			}
			if e.Model != rep.Model {
				t.Fatalf("matching event model %v != report model %v", e.Model, rep.Model)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no event carried the MAC match")
	}
	if events[len(events)-1].Trial != rep.Iterations {
		t.Fatalf("last event trial %d != iterations %d", events[len(events)-1].Trial, rep.Iterations)
	}

	// Uncorrectable decode: no event may claim a MAC match.
	events = events[:0]
	badDUE := tripleCorrupt(l, r)
	if _, rep := c.DecodeLine(badDUE); rep.Status != StatusUncorrectable {
		t.Fatalf("DUE decode: %+v", rep)
	}
	for _, e := range events {
		if e.MACMatch {
			t.Fatalf("DUE decode emitted a MAC-match event: %+v", e)
		}
	}
}

// One shared collector fed by every decode outcome class.
func TestDecodeMetricsCollection(t *testing.T) {
	m := telemetry.NewDecodeMetrics()
	cfg := ConfigM2005()
	cfg.Metrics = m
	cfg.Models = []FaultModel{ModelChipKill, ModelSSC} // keep the DUE fast
	c := MustNew(cfg, mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(24))
	data := randLine(r)
	l := c.EncodeLine(&data)

	c.DecodeLine(l)                           // clean
	c.DecodeLine(corruptSymbol(l, 1, 4, 0x7)) // corrected (data symbol)
	c.DecodeLine(tripleCorrupt(l, r))         // DUE

	if m.Clean.Value() != 1 || m.Corrected.Value() != 1 || m.Uncorrectable.Value() != 1 {
		t.Fatalf("outcome counters = %d/%d/%d, want 1/1/1",
			m.Clean.Value(), m.Corrected.Value(), m.Uncorrectable.Value())
	}
	hits := int64(0)
	m.ModelHits.Do(func(_ string, v int64) { hits += v })
	if hits != 1 {
		t.Fatalf("model hits = %d, want 1", hits)
	}
	if m.Iterations.Count() != 2 { // corrected + DUE; clean is not an iteration sample
		t.Fatalf("iteration samples = %d, want 2", m.Iterations.Count())
	}
	if m.Latency.Count() != 3 {
		t.Fatalf("latency samples = %d, want 3", m.Latency.Count())
	}
	trials := int64(0)
	m.ModelTrials.Do(func(_ string, v int64) { trials += v })
	if trials != m.Iterations.Sum() {
		t.Fatalf("model trials %d != iteration sum %d", trials, m.Iterations.Sum())
	}

	// The Update-ECC path (check-bit-only corruption) counts as corrected
	// and ECC-fixed.
	badCheck := l.Clone()
	badCheck.Words[0] = badCheck.Words[0].FlipBit(2) // inside the 11 check bits
	if _, rep := c.DecodeLine(badCheck); rep.Status != StatusCorrected || !rep.ECCFixed {
		t.Fatalf("check-bit corruption: %+v", rep)
	}
	if m.ECCFixed.Value() != 1 || m.Corrected.Value() != 2 {
		t.Fatalf("ecc_fixed/corrected = %d/%d, want 1/2", m.ECCFixed.Value(), m.Corrected.Value())
	}
}

// A collector shared by concurrent decoders must stay exact under -race.
func TestDecodeMetricsConcurrent(t *testing.T) {
	m := telemetry.NewDecodeMetrics()
	cfg := ConfigM2005()
	cfg.Metrics = m
	c := MustNew(cfg, mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(25))
	const n = 64
	lines := make([]Line, n)
	for i := range lines {
		data := randLine(r)
		l := c.EncodeLine(&data)
		if i%2 == 1 {
			l = corruptSymbol(l, i%c.Words(), 2+i%6, uint64(1+r.Intn(255)))
		}
		lines[i] = l
	}
	results := decodeConcurrently(c, 8, lines)
	for _, res := range results {
		if res.Report.Status == StatusUncorrectable {
			t.Fatalf("line %d uncorrectable", res.Index)
		}
	}
	if got := m.Clean.Value() + m.Corrected.Value(); got != n {
		t.Fatalf("clean+corrected = %d, want %d", got, n)
	}
	if m.Latency.Count() != n {
		t.Fatalf("latency samples = %d, want %d", m.Latency.Count(), n)
	}
}

// A trace hook with its own locking must also survive concurrent decoders.
func TestTraceHookConcurrent(t *testing.T) {
	var mu sync.Mutex
	trials := 0
	cfg := ConfigM2005()
	cfg.Trace = func(e TraceEvent) {
		mu.Lock()
		trials++
		mu.Unlock()
	}
	c := MustNew(cfg, mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(26))
	const n = 32
	lines := make([]Line, n)
	total := 0
	for i := range lines {
		data := randLine(r)
		lines[i] = corruptSymbol(c.EncodeLine(&data), i%c.Words(), 2+i%6, uint64(1+r.Intn(255)))
	}
	results := decodeConcurrently(c, 4, lines)
	for _, res := range results {
		total += res.Report.Iterations
	}
	mu.Lock()
	defer mu.Unlock()
	if trials < total {
		// Each trial emits >= 1 event (one per corrupted word).
		t.Fatalf("hook saw %d events for %d trials", trials, total)
	}
}
