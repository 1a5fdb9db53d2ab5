package poly

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polyecc/internal/latency"
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

// Only a latency probe stamps Elapsed: a bare Code and a metrics-only
// Code read no clock, a probed one times every decode.
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
	if _, rep := inst.DecodeLine(inst.EncodeLine(&data)); rep.Elapsed != 0 {
		t.Fatalf("metrics-only code stamped Elapsed = %v", rep.Elapsed)
	}
	if inst.Metrics() != cfg.Metrics {
		t.Fatal("Metrics() should return the attached collector")
	}

	probed := inst.WithLatency(latency.NewCollector().Probe())
	if _, rep := probed.DecodeLine(probed.EncodeLine(&data)); rep.Elapsed <= 0 {
		t.Fatalf("probed code Elapsed = %v, want > 0", rep.Elapsed)
	}
}

// A Code carrying counters and a trace hook but no latency probe must
// leave Elapsed zero on every outcome class: neither attachment reads
// the clock.
func TestElapsedZeroWithoutProbe(t *testing.T) {
	m := telemetry.NewDecodeMetrics()
	trials := 0
	cfg := ConfigM2005()
	cfg.Metrics = m
	cfg.Trace = func(TraceEvent) { trials++ }
	cfg.Models = []FaultModel{ModelChipKill, ModelSSC} // keep the DUE fast
	c := MustNew(cfg, mac.MustSipHash(testKey, 40))
	s := c.NewScratch()
	r := rand.New(rand.NewSource(27))
	data := randLine(r)
	l := c.EncodeLine(&data)
	cases := []struct {
		name string
		line Line
		want Status
	}{
		{"clean", l, StatusClean},
		{"corrected", corruptSymbol(l, 2, 3, 0x5a), StatusCorrected},
		{"due", tripleCorrupt(l, r), StatusUncorrectable},
	}
	for _, tc := range cases {
		for round := 0; round < 10; round++ { // past any 1-in-N sampling period
			_, rep := c.DecodeLine(tc.line)
			_, srep := c.DecodeLineScratch(tc.line, s)
			for _, rp := range []Report{rep, srep} {
				if rp.Status != tc.want {
					t.Fatalf("%s: status %v, want %v", tc.name, rp.Status, tc.want)
				}
				if rp.Elapsed != 0 {
					t.Fatalf("%s round %d: Elapsed = %v without a probe", tc.name, round, rp.Elapsed)
				}
			}
		}
	}
	if trials == 0 || m.Clean.Value() != 20 || m.Corrected.Value() != 20 || m.Uncorrectable.Value() != 20 {
		t.Fatalf("attachments idle: %d trace events, clean/corrected/due = %d/%d/%d",
			trials, m.Clean.Value(), m.Corrected.Value(), m.Uncorrectable.Value())
	}
}

// With a probe attached, every entry point times each call exactly once
// into its outcome class and stamps Elapsed on every decode report.
func TestLatencyProbeEntryPoints(t *testing.T) {
	cfg := ConfigM2005()
	cfg.Models = []FaultModel{ModelChipKill, ModelSSC} // keep the DUE fast
	base := MustNew(cfg, mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(28))
	data := randLine(r)
	clean := base.EncodeLine(&data)
	lines := map[latency.Op]Line{
		latency.OpDecodeClean:         clean,
		latency.OpDecodeCorrected:     corruptSymbol(clean, 5, 6, 0x21),
		latency.OpDecodeUncorrectable: tripleCorrupt(clean, r),
	}
	count := func(coll *latency.Collector, op latency.Op) int64 {
		return coll.Op(op).Quantiles().Count
	}
	// expectOne checks that exactly one observation landed, in class op.
	expectOne := func(entry string, coll *latency.Collector, op latency.Op) {
		t.Helper()
		for _, o := range []latency.Op{latency.OpEncode, latency.OpDecodeClean, latency.OpDecodeCorrected, latency.OpDecodeUncorrectable} {
			want := int64(0)
			if o == op {
				want = 1
			}
			if got := count(coll, o); got != want {
				t.Fatalf("%s: %s observations = %d, want %d", entry, o, got, want)
			}
		}
	}
	for op, l := range lines {
		decodes := []struct {
			name string
			run  func(c *Code) Report
		}{
			{"DecodeLine", func(c *Code) Report { _, rep := c.DecodeLine(l); return rep }},
			{"DecodeLineScratch", func(c *Code) Report { _, rep := c.DecodeLineScratch(l, c.NewScratch()); return rep }},
			{"DecodeLines", func(c *Code) Report {
				res := c.DecodeLines(nil, []Line{l}, c.NewScratch())
				return res[0].Report
			}},
			{"DecodeBurst", func(c *Code) Report {
				b := c.ToBurst(l)
				_, rep := c.DecodeBurst(&b)
				return rep
			}},
		}
		for _, d := range decodes {
			coll := latency.NewCollector()
			rep := d.run(base.WithLatency(coll.Probe()))
			if decodeOp(rep.Status) != op {
				t.Fatalf("%s: status %v does not classify as %s", d.name, rep.Status, op)
			}
			if rep.Elapsed <= 0 {
				t.Fatalf("%s %s: Elapsed = %v, want > 0", d.name, op, rep.Elapsed)
			}
			expectOne(d.name+"/"+op.String(), coll, op)
		}
	}
	encodes := []struct {
		name string
		run  func(c *Code)
	}{
		{"EncodeLineInto", func(c *Code) {
			var dst Line
			c.EncodeLineInto(&dst, &data)
		}},
		{"EncodeLineScratch", func(c *Code) { c.EncodeLineScratch(&data, c.NewScratch()) }},
	}
	for _, e := range encodes {
		coll := latency.NewCollector()
		e.run(base.WithLatency(coll.Probe()))
		expectOne(e.name, coll, latency.OpEncode)
	}
}

// Attaching a probe must not change what the counters record: the same
// decodes through a probed and an unprobed Code fill identical
// collectors.
func TestDecodeMetricsIndependentOfProbe(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	bare := newM2005(t)
	var lines []Line
	for i := 0; i < 40; i++ {
		data := randLine(r)
		l := bare.EncodeLine(&data)
		switch i % 4 {
		case 1:
			l = corruptSymbol(l, i%bare.Words(), 2+i%6, uint64(1+r.Intn(255)))
		case 2:
			l.Words[i%bare.Words()] = l.Words[i%bare.Words()].FlipBit(3) // check bits: Update-ECC
		case 3:
			l = tripleCorrupt(l, r)
		}
		lines = append(lines, l)
	}
	cfg := ConfigM2005()
	cfg.MaxIterations = 2000 // bound the DUE searches
	run := func(probe bool) *telemetry.DecodeMetrics {
		m := telemetry.NewDecodeMetrics()
		c := MustNew(cfg, mac.MustSipHash(testKey, 40)).WithMetrics(m)
		if probe {
			c = c.WithLatency(latency.NewCollector().Probe())
		}
		s := c.NewScratch()
		for _, l := range lines {
			c.DecodeLineScratch(l, s)
		}
		return m
	}
	plain, probed := run(false), run(true)
	render := func(m *telemetry.DecodeMetrics) string {
		return fmt.Sprintf("clean=%d corrected=%d due=%d ecc=%d hits=%s trials=%s iterations=%s",
			m.Clean.Value(), m.Corrected.Value(), m.Uncorrectable.Value(), m.ECCFixed.Value(),
			m.ModelHits.String(), m.ModelTrials.String(), m.Iterations.String())
	}
	if a, b := render(plain), render(probed); a != b {
		t.Fatalf("counters differ with a probe attached:\n without %s\n with    %s", a, b)
	}
	if plain.Clean.Value() == 0 || plain.Corrected.Value() == 0 || plain.Uncorrectable.Value() == 0 || plain.ECCFixed.Value() == 0 {
		t.Fatalf("workload misses an outcome class: %s", render(plain))
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
	if got := m.Iterations.Count(); got != m.Corrected.Value() {
		t.Fatalf("iteration samples = %d, want one per corrected decode (%d)", got, m.Corrected.Value())
	}
	trials := int64(0)
	m.ModelTrials.Do(func(_ string, v int64) { trials += v })
	if trials != m.Iterations.Sum() {
		t.Fatalf("model trials %d != iteration sum %d", trials, m.Iterations.Sum())
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
