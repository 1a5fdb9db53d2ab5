// Command benchsnap measures the encode/decode hot paths with the
// testing package's benchmark driver and writes a JSON snapshot, seeding
// the perf trajectory future PRs are held against. The scenarios cover
// the fault-free (clean) path and the single-symbol correction path,
// each bare and with a telemetry collector attached; the scratch-based
// allocation-free entry points; and a clean-decode bench for every
// registered cacheline codec.
//
// With -gate four contracts are checked and the process exits nonzero
// if any regresses — `make bench-gate` wires this into `make ci`:
//
//   - allocation: encode (EncodeLineInto), the scratch entry points, the
//     clean and corrected decodes (SSC, DEC, BF+BF, and the batched
//     tile), the clean decode with a journal subscriber attached (the
//     live health engine's tap), both decodes with a latency probe
//     attached, the wire transpose, and poly-m2005's clean registry
//     decode must all run at 0 allocs/op;
//   - latency ceilings: the candidate-free fast path is pinned to
//     absolute budgets — clean decode ≤ 250 ns/op, corrected SSC
//     ≤ 400 ns/op, encode ≤ 200 ns/op — and so are the wire layer and
//     the registry path: FromBurstScratch ≤ 300 ns/op and a clean
//     poly-m2005 decode through the linecode adapter ≤ 1200 ns/op (best
//     of three runs, so a single noisy sample cannot flake the gate);
//   - latency deltas: every ceilinged or corrected scenario must stay
//     within -gate-tolerance percent of the committed -baseline
//     snapshot's ns/op, and the +metrics, +journal-sub, and +latency
//     variants must stay within a fixed multiple of their bare
//     counterpart measured in the same run (a ratio, so machine noise
//     that moves both paths together cannot fail the gate) — metrics
//     attachment in particular may cost at most 1.25x a bare clean
//     decode;
//   - memory: each small-M codec's remainder→hint tables must fit the
//     4 MiB budget.
//
// With -compare the scenarios are measured and printed as percent deltas
// against an older snapshot instead of being written anywhere — the
// before/after table for a perf PR.
//
// With -history the snapshot is appended as one manifest-stamped line
// of BENCH_history.jsonl instead, accumulating the perf trajectory
// across PRs; cmd/eccreport renders it as a trend table.
//
// Usage:
//
//	benchsnap [-o BENCH_decode.json] [-v]
//	benchsnap -gate [-baseline BENCH_decode.json] [-gate-tolerance 10]
//	benchsnap -compare old.json
//	benchsnap -history [-history-path BENCH_history.jsonl]
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"flag"

	"polyecc"
	"polyecc/internal/dram"
	"polyecc/internal/latency"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

// Snapshot is the file format of BENCH_decode.json and of each line of
// BENCH_history.jsonl.
type Snapshot struct {
	GeneratedAt string              `json:"generated_at"`
	GoVersion   string              `json:"go_version"`
	GOARCH      string              `json:"goarch"`
	Config      string              `json:"config"`
	Manifest    *telemetry.Manifest `json:"manifest,omitempty"`
	// HintTables records, per poly codec, the bytes of every
	// remainder-indexed table it holds (fast or hint tables), so table
	// growth shows up in the perf trajectory.
	HintTables map[string]int64 `json:"hint_table_bytes,omitempty"`
	Benchmarks []Result         `json:"benchmarks"`
}

// hintTableBudget caps the tables each codec holds: correction trades
// memory for candidate enumeration, and the trade only holds while the
// tables stay a few L2-sized megabytes.
const hintTableBudget = 4 << 20

// hintTableBytes collects the per-codec table footprint from the
// registry. Non-poly schemes hold none and are omitted.
func hintTableBytes() map[string]int64 {
	out := map[string]int64{}
	for _, name := range linecode.Names() {
		if p, ok := linecode.MustNew(name).(linecode.Poly); ok {
			if n := p.C.HintTableBytes(); n > 0 {
				out[name] = int64(n)
			}
		}
	}
	return out
}

// Result is one scenario's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// result looks a scenario up by name.
func (s Snapshot) result(name string) (Result, bool) {
	for _, r := range s.Benchmarks {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// loadSnapshot reads a snapshot file (the -baseline and -compare inputs).
func loadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

var benchKey = [16]byte{0xb, 0xe, 0xa, 0xc, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// measure runs a scenario n times and keeps the fastest run. The
// minimum is by far the most stable benchmark statistic on a shared
// machine, and a committed baseline must not pin a lucky single sample
// that every later -gate run is held to.
func measure(fn func(*testing.B), n int) (testing.BenchmarkResult, float64) {
	best := testing.Benchmark(fn)
	bestNs := float64(best.T.Nanoseconds()) / float64(best.N)
	for i := 1; i < n; i++ {
		res := testing.Benchmark(fn)
		if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < bestNs {
			best, bestNs = res, ns
		}
	}
	return best, bestNs
}

// corrupt returns line with one random data-symbol error in one word.
func corrupt(code *polyecc.Code, line polyecc.Line, r *rand.Rand) polyecc.Line {
	bad := line.Clone()
	w := r.Intn(code.Words())
	s := 2 + r.Intn(6) // stay inside the data field
	old := bad.Words[w].Field(s*8, 8)
	bad.Words[w] = bad.Words[w].WithField(s*8, 8, old^uint64(1+r.Intn(255)))
	return bad
}

// xorSym flips mask into data symbol s of word w.
func xorSym(l polyecc.Line, w, s int, mask uint64) {
	l.Words[w] = l.Words[w].WithField(s*8, 8, l.Words[w].Field(s*8, 8)^mask)
}

// corruptDEC returns line with two single-bit flips in two words, each
// pair of flips in a different symbol pair, so no single device pair
// (BF+BF) or device-plus-bit (ChipKill+1) hypothesis explains the line
// and correction resolves under the DEC model.
func corruptDEC(line polyecc.Line) polyecc.Line {
	bad := line.Clone()
	xorSym(bad, 1, 2, 1<<0)
	xorSym(bad, 1, 5, 1<<3)
	xorSym(bad, 4, 3, 1<<1)
	xorSym(bad, 4, 6, 1<<5)
	return bad
}

// corruptBFBF returns line with beat-aligned nibble faults on the same
// symbol pair in two words — the shared-device-pair signature the BF+BF
// model covers (two bounded faults, each confined to one aligned nibble
// of its symbol) and the single-symbol and double-bit models do not.
func corruptBFBF(line polyecc.Line) polyecc.Line {
	bad := line.Clone()
	xorSym(bad, 1, 2, 0x0f)
	xorSym(bad, 1, 5, 0x30)
	xorSym(bad, 4, 2, 0xa0)
	xorSym(bad, 4, 5, 0x05)
	return bad
}

func main() {
	out := flag.String("o", "BENCH_decode.json", "snapshot output path")
	gate := flag.Bool("gate", false, "check the 0 allocs/op contract on the hot paths plus the corrected-decode latency against -baseline, and exit nonzero on regression (no snapshot)")
	baseline := flag.String("baseline", "BENCH_decode.json", "committed snapshot the -gate latency check compares against (empty disables the latency gate)")
	gateTolerance := flag.Float64("gate-tolerance", 20, "percent ns/op regression over -baseline that fails -gate on the latency-gated scenarios (the absolute ceilings carry the tight contract; this delta only has to beat machine-state drift between the baseline run and the gate run, measured at ~15-17% across minutes on a shared box)")
	compare := flag.String("compare", "", "older snapshot to diff against: measure the scenarios and print percent deltas instead of writing a snapshot")
	history := flag.Bool("history", false, "append the snapshot as one line of -history-path instead of overwriting -o, accumulating the perf trajectory across PRs")
	historyPath := flag.String("history-path", "BENCH_history.jsonl", "history file for -history mode")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	flag.Parse()
	logger := obs.Init("benchsnap")
	manifest := telemetry.NewManifest("benchsnap")

	newCode := func(m *polyecc.DecodeMetrics) *polyecc.Code {
		cfg := polyecc.ConfigM2005()
		cfg.Metrics = m
		return polyecc.MustNew(cfg, polyecc.NewSipHashMAC(benchKey, 40))
	}
	r := rand.New(rand.NewSource(1))
	var data [polyecc.LineBytes]byte
	r.Read(data[:])

	bare := newCode(nil)
	instrumented := newCode(polyecc.NewDecodeMetrics())
	clean := bare.EncodeLine(&data)
	bad := corrupt(bare, clean, r)
	// The model-specific corruptions are checked at setup: a scenario
	// that silently resolved under a cheaper model would gate the wrong
	// code path.
	mustResolve := func(name string, l polyecc.Line, want polyecc.FaultModel) polyecc.Line {
		got, rep := bare.DecodeLine(l)
		if rep.Status != polyecc.StatusCorrected || rep.Model != want || got != data {
			telemetry.Fatal(logger, "scenario setup: corruption did not resolve as intended",
				"scenario", name, "status", int(rep.Status), "model", rep.Model.String(), "want", want.String())
		}
		return l
	}
	badDEC := mustResolve("decode/corrected-dec", corruptDEC(clean), polyecc.ModelDEC)
	badBFBF := mustResolve("decode/corrected-bfbf", corruptBFBF(clean), polyecc.ModelBFBF)

	decodeBench := func(code *polyecc.Code, line polyecc.Line, wantClean bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep := code.DecodeLine(line)
				if (rep.Status == polyecc.StatusClean) != wantClean {
					b.Fatalf("unexpected status %v", rep.Status)
				}
			}
		}
	}
	// The gate scenarios carry the repo-wide allocation contract: encode
	// into a reused Line and the scratch entry points — what the soak,
	// scrubber, and parallel decoder run per line — never touch the heap,
	// and the iterative corrector resolves an SSC without one either.
	// The +journal-sub variants decode through an AnomalyRecorder whose
	// journal has a live subscriber (the health engine's tap): the clean
	// path must still be allocation-free (nothing is recorded), and the
	// corrected path's record-and-fan-out must hold the latency budget.
	scratch := bare.NewScratch()
	correctedSSC := decodeBench(bare, bad, false)
	lcoll := latency.NewCollector()
	lcode := bare.WithLatency(lcoll.Probe())
	lscratch := lcode.NewScratch()
	jour := telemetry.NewJournal(4096)
	jsub := jour.Subscribe(1024)
	defer jsub.Close()
	jrec := poly.NewAnomalyRecorder(jour, "benchsnap", bare)
	jcode := jrec.Code()
	jscratch := jcode.NewScratch()
	// batchLines is the decode-batch32/corrected input: a scrub-shaped
	// tile of 32 lines with one SSC fault per 8 lines, so the gate covers
	// the batched remainder prepass handing off to the corrector.
	batchLines := make([]polyecc.Line, 32)
	for i := range batchLines {
		if i%8 == 3 {
			batchLines[i] = bad.Clone()
		} else {
			batchLines[i] = clean.Clone()
		}
	}
	// codecDecodeClean decodes a clean burst through a registered codec's
	// linecode adapter: the wire-to-data path every scenario and Table V
	// decode takes.
	codecDecodeClean := func(code linecode.Code) func(b *testing.B) {
		burst := code.Encode(&data)
		want := data
		return func(b *testing.B) {
			b.ReportAllocs()
			var local dram.Burst
			for i := 0; i < b.N; i++ {
				local = burst
				got, outcome, _ := code.Decode(&local)
				if outcome != linecode.OK || got != want {
					b.Fatal("clean decode failed")
				}
			}
		}
	}
	// The flagship registry codec gates the wire layer twice: the
	// word-parallel transpose alone, and its whole clean decode through
	// the adapter. On the 2.1 GHz 2-vCPU host that set their ceilings,
	// the best of three runs read 83 and 312 ns/op in a quiet period,
	// and snapshots in busy periods read up to 176 and 730 ns/op; the
	// ceilings sit about 1.7x above the busy readings and far below the
	// bit-at-a-time transpose they replaced (5.6-9.7 us and 4.3-9.7 us
	// on the same host).
	const flagship = "poly-m2005"
	regCode := linecode.MustNew(flagship)
	regBurst := regCode.Encode(&data)
	wireCode := regCode.(linecode.Poly).C
	wireScratch := wireCode.NewScratch()
	gated := []struct {
		name      string
		allocFree bool    // must run at 0 allocs/op
		latency   bool    // ns/op held to -gate-tolerance of -baseline
		maxNs     float64 // absolute ns/op ceiling (0 disables); best of 3 runs
		ratioOf   string  // earlier gated scenario this one is held relative to
		maxRatio  float64 // ns/op must stay under maxRatio x that scenario's
		fn        func(b *testing.B)
	}{
		// The absolute ceilings pin the candidate-free fast path: a clean
		// decode is a batchable remainder scan plus one MAC, a corrected
		// SSC is a hint-table lookup plus an incremental MAC, and both
		// regress past their ceiling if either table is lost. Ceilinged
		// scenarios re-measure (best of 3) before failing, since a single
		// testing.Benchmark run wobbles ~10% on shared machines.
		{name: "decode/clean", allocFree: true, latency: true, maxNs: 250,
			fn: decodeBench(bare, clean, true)},
		// Metrics attachment may cost at most 25% over the bare clean
		// decode — the cached counter pointers keep the instrumented path
		// out of the hot loop's way, and counting reads no clock.
		{name: "decode/clean+metrics", allocFree: true,
			ratioOf: "decode/clean", maxRatio: 1.25,
			fn: decodeBench(instrumented, clean, true)},
		{name: "encode", allocFree: true, maxNs: 200, fn: func(b *testing.B) {
			b.ReportAllocs()
			var dst polyecc.Line
			for i := 0; i < b.N; i++ {
				bare.EncodeLineInto(&dst, &data)
			}
		}},
		{name: "encode-scratch", allocFree: true, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bare.EncodeLineScratch(&data, scratch)
			}
		}},
		{name: "decode-scratch/clean", allocFree: true, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep := bare.DecodeLineScratch(clean, scratch)
				if rep.Status != polyecc.StatusClean {
					b.Fatalf("unexpected status %v", rep.Status)
				}
			}
		}},
		// The attached-path budget is a ratio against the bare path from
		// the same run: the trace hook plus a clean RecordDecode may cost
		// at most 3x a bare clean decode, and recording+fan-out at most 3x
		// a bare corrected decode. Absolute baselines would conflate this
		// with machine noise.
		{name: "decode-scratch/clean+journal-sub", allocFree: true,
			ratioOf: "decode-scratch/clean", maxRatio: 3,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, rep := jcode.DecodeLineScratch(clean, jscratch)
					jrec.RecordDecode(clean, &rep, telemetry.Event{Index: i}, "", false)
					if rep.Status != polyecc.StatusClean {
						b.Fatalf("unexpected status %v", rep.Status)
					}
				}
			}},
		// The latency-probe variants decode through a Code with a striped
		// histogram attached: two clock reads plus two uncontended atomic
		// adds per op. The budget is the same 3x-of-bare ratio shape as the
		// journal-subscriber entries, and the probe path must stay
		// allocation-free on both outcomes.
		{name: "decode-scratch/clean+latency", allocFree: true,
			ratioOf: "decode-scratch/clean", maxRatio: 3,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, rep := lcode.DecodeLineScratch(clean, lscratch)
					if rep.Status != polyecc.StatusClean {
						b.Fatalf("unexpected status %v", rep.Status)
					}
				}
			}},
		{name: "decode/corrected-ssc", allocFree: true, latency: true, maxNs: 400,
			fn: correctedSSC},
		{name: "decode/corrected-dec", allocFree: true, latency: true,
			fn: decodeBench(bare, badDEC, false)},
		{name: "decode/corrected-bfbf", allocFree: true, latency: true,
			fn: decodeBench(bare, badBFBF, false)},
		{name: "decode-batch32/corrected", allocFree: true, latency: true,
			fn: func(b *testing.B) {
				// One op is a 32-line batch with 4 SSC faults; ns/op is per
				// batch.
				results := make([]polyecc.Result, 0, len(batchLines))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					results = bare.DecodeLines(results[:0], batchLines, scratch)
					if results[3].Report.Status != polyecc.StatusCorrected {
						b.Fatalf("unexpected status %v", results[3].Report.Status)
					}
				}
			}},
		{name: "decode/corrected-ssc+latency", allocFree: true,
			ratioOf: "decode/corrected-ssc", maxRatio: 3,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, rep := lcode.DecodeLineScratch(bad, lscratch)
					if rep.Status == polyecc.StatusClean {
						b.Fatalf("unexpected status %v", rep.Status)
					}
				}
			}},
		{name: "wire/from-burst", allocFree: true, maxNs: 300,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wireCode.FromBurstScratch(&regBurst, wireScratch)
				}
			}},
		{name: "codec/" + flagship + "/decode-clean", allocFree: true, maxNs: 1200,
			fn: codecDecodeClean(regCode)},
		{name: "decode/corrected-ssc+journal-sub",
			ratioOf: "decode/corrected-ssc", maxRatio: 3,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, rep := jcode.DecodeLineScratch(bad, jscratch)
					jrec.RecordDecode(bad, &rep, telemetry.Event{Index: i}, "ssc", false)
					if rep.Status == polyecc.StatusClean {
						b.Fatalf("unexpected status %v", rep.Status)
					}
				}
			}},
	}
	scenarios := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"decode/corrected-ssc+metrics", decodeBench(instrumented, bad, false)},
		{"decode-batch32/clean", func(b *testing.B) {
			// One op is a 32-line batch through DecodeLines — the scrubber's
			// steady state. ns/op is per batch.
			lines := make([]polyecc.Line, 32)
			for i := range lines {
				lines[i] = clean.Clone()
			}
			results := make([]polyecc.Result, 0, len(lines))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = bare.DecodeLines(results[:0], lines, scratch)
				if results[0].Report.Status != polyecc.StatusClean {
					b.Fatalf("unexpected status %v", results[0].Report.Status)
				}
			}
		}},
	}
	for _, g := range gated {
		scenarios = append(scenarios, struct {
			name string
			fn   func(b *testing.B)
		}{g.name, g.fn})
	}
	// One clean-decode bench per registered cacheline codec, so the
	// snapshot tracks every scheme the experiments compare; the
	// flagship's is among the gated scenarios above.
	for _, name := range linecode.Names() {
		if name == flagship {
			continue
		}
		scenarios = append(scenarios, struct {
			name string
			fn   func(b *testing.B)
		}{"codec/" + name + "/decode-clean", codecDecodeClean(linecode.MustNew(name))})
	}

	if *gate {
		var base Snapshot
		baseOK := false
		if *baseline != "" {
			var err error
			if base, err = loadSnapshot(*baseline); err != nil {
				logger.Error("latency gate degraded: baseline unreadable", "path", *baseline, "err", err)
			} else {
				baseOK = true
			}
		}
		failed := false
		measured := map[string]float64{}
		gatedFns := map[string]func(b *testing.B){}
		for _, sc := range gated {
			gatedFns[sc.name] = sc.fn
		}
		for _, sc := range gated {
			res, ns := measure(sc.fn, 1)
			// Absolute checks (ceiling, baseline delta) re-measure up to
			// twice and keep the fastest run before failing: one
			// testing.Benchmark sample wobbles ~10% on shared machines,
			// and a gate must not flake on noise.
			limit := 0.0
			if sc.maxNs > 0 {
				limit = sc.maxNs
			}
			if sc.latency && baseOK {
				if ref, ok := base.result(sc.name); ok {
					if l := ref.NsPerOp * (1 + *gateTolerance/100); limit == 0 || l < limit {
						limit = l
					}
				}
			}
			for try := 0; try < 2 && limit > 0 && ns > limit; try++ {
				logger.Info("gate re-measuring", "scenario", sc.name,
					"ns_per_op", fmt.Sprintf("%.1f", ns), "limit", fmt.Sprintf("%.1f", limit))
				if _, n := measure(sc.fn, 1); n < ns {
					ns = n
				}
			}
			measured[sc.name] = ns
			logger.Info("gate", "scenario", sc.name, "allocs_per_op", res.AllocsPerOp(),
				"ns_per_op", fmt.Sprintf("%.1f", ns))
			if sc.allocFree && res.AllocsPerOp() != 0 {
				logger.Error("allocation gate FAILED", "scenario", sc.name, "allocs_per_op", res.AllocsPerOp())
				failed = true
			}
			if sc.maxNs > 0 {
				if ns > sc.maxNs {
					logger.Error("latency ceiling FAILED", "scenario", sc.name,
						"ns_per_op", fmt.Sprintf("%.1f", ns), "max_ns", fmt.Sprintf("%.0f", sc.maxNs))
					failed = true
				} else {
					logger.Info("latency ceiling", "scenario", sc.name,
						"ns_per_op", fmt.Sprintf("%.1f", ns), "max_ns", fmt.Sprintf("%.0f", sc.maxNs))
				}
			}
			if sc.ratioOf != "" {
				ref, ok := measured[sc.ratioOf]
				if !ok || ref <= 0 {
					logger.Error("ratio gate FAILED: reference not measured", "scenario", sc.name, "ref", sc.ratioOf)
					failed = true
					continue
				}
				ratio := ns / ref
				// A failing ratio re-measures numerator and denominator
				// back to back: the two sides were first measured minutes
				// apart, and a machine-state shift in between shows up as
				// a phantom ratio change that an adjacent pair does not
				// reproduce.
				for try := 0; try < 2 && ratio > sc.maxRatio; try++ {
					logger.Info("ratio gate re-measuring pair", "scenario", sc.name,
						"ratio", fmt.Sprintf("%.2fx", ratio), "ref", sc.ratioOf)
					_, refNs := measure(gatedFns[sc.ratioOf], 1)
					_, myNs := measure(sc.fn, 1)
					if r := myNs / refNs; r < ratio {
						ratio = r
					}
				}
				if ratio > sc.maxRatio {
					logger.Error("ratio gate FAILED", "scenario", sc.name,
						"ratio", fmt.Sprintf("%.2fx", ratio), "ref", sc.ratioOf,
						"max_ratio", fmt.Sprintf("%.2fx", sc.maxRatio))
					failed = true
				} else {
					logger.Info("ratio gate", "scenario", sc.name,
						"ratio", fmt.Sprintf("%.2fx", ratio), "ref", sc.ratioOf,
						"max_ratio", fmt.Sprintf("%.2fx", sc.maxRatio))
				}
			}
			if !sc.latency || *baseline == "" {
				continue
			}
			if !baseOK {
				failed = true
				continue
			}
			if ref, ok := base.result(sc.name); !ok {
				logger.Warn("latency gate skipped: baseline has no entry", "scenario", sc.name, "path", *baseline)
			} else if limit := ref.NsPerOp * (1 + *gateTolerance/100); ns > limit {
				logger.Error("latency gate FAILED", "scenario", sc.name,
					"ns_per_op", fmt.Sprintf("%.1f", ns),
					"baseline_ns_per_op", fmt.Sprintf("%.1f", ref.NsPerOp),
					"tolerance_pct", *gateTolerance)
				failed = true
			} else {
				logger.Info("latency gate", "scenario", sc.name,
					"ns_per_op", fmt.Sprintf("%.1f", ns),
					"baseline_ns_per_op", fmt.Sprintf("%.1f", ref.NsPerOp),
					"delta_pct", fmt.Sprintf("%+.1f", 100*(ns-ref.NsPerOp)/ref.NsPerOp))
			}
		}
		// The hint tables buy the latency ceilings above with memory; the
		// budget keeps that trade from regressing silently.
		hints := hintTableBytes()
		for _, name := range linecode.Names() {
			bytes, ok := hints[name]
			if !ok {
				continue
			}
			if bytes > hintTableBudget {
				logger.Error("hint-table budget FAILED", "codec", name,
					"bytes", bytes, "budget", hintTableBudget)
				failed = true
			} else {
				logger.Info("hint-table budget", "codec", name, "bytes", bytes,
					"budget", hintTableBudget)
			}
		}
		if failed {
			os.Exit(1)
		}
		logger.Info("bench gate passed: hot paths at 0 allocs/op, latency ceilings and hint-table budget held")
		return
	}

	if *compare != "" {
		old, err := loadSnapshot(*compare)
		if err != nil {
			telemetry.Fatal(logger, "read compare snapshot", "path", *compare, "err", err)
		}
		fmt.Printf("%-34s %12s %12s %8s %8s\n", "scenario", "old ns/op", "new ns/op", "Δ ns", "allocs")
		for _, sc := range scenarios {
			res, ns := measure(sc.fn, 2)
			ref, ok := old.result(sc.name)
			if !ok {
				fmt.Printf("%-34s %12s %12.1f %8s %8d\n", sc.name, "-", ns, "new", res.AllocsPerOp())
				continue
			}
			allocs := fmt.Sprintf("%d", res.AllocsPerOp())
			if res.AllocsPerOp() != ref.AllocsPerOp {
				allocs = fmt.Sprintf("%d→%d", ref.AllocsPerOp, res.AllocsPerOp())
			}
			fmt.Printf("%-34s %12.1f %12.1f %+7.1f%% %8s\n",
				sc.name, ref.NsPerOp, ns, 100*(ns-ref.NsPerOp)/ref.NsPerOp, allocs)
		}
		hints := hintTableBytes()
		for _, name := range linecode.Names() {
			if bytes, ok := hints[name]; ok {
				fmt.Printf("hint-tables/%-23s %12d bytes\n", name, bytes)
			}
		}
		return
	}

	snap := Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		Config:      "M2005/siphash40",
		Manifest:    manifest,
		HintTables:  hintTableBytes(),
	}
	for _, sc := range scenarios {
		logger.Info("benchmarking", "scenario", sc.name)
		res, ns := measure(sc.fn, 2)
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        sc.name,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		})
		logger.Info("result", "scenario", sc.name,
			"ns_per_op", fmt.Sprintf("%.1f", ns),
			"allocs_per_op", res.AllocsPerOp())
	}

	manifest.Finish()
	if *history {
		// One compact line per run: the file is a JSONL perf trajectory
		// that cmd/eccreport renders as a trend table.
		buf, err := json.Marshal(snap)
		if err != nil {
			telemetry.Fatal(logger, "marshal snapshot", "err", err)
		}
		f, err := os.OpenFile(*historyPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			telemetry.Fatal(logger, "open history", "path", *historyPath, "err", err)
		}
		if _, err := f.Write(append(buf, '\n')); err != nil {
			f.Close()
			telemetry.Fatal(logger, "append history", "path", *historyPath, "err", err)
		}
		if err := f.Close(); err != nil {
			telemetry.Fatal(logger, "close history", "path", *historyPath, "err", err)
		}
		logger.Info("appended history line", "path", *historyPath, "scenarios", len(snap.Benchmarks))
		return
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		telemetry.Fatal(logger, "marshal snapshot", "err", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		telemetry.Fatal(logger, "write snapshot", "path", *out, "err", err)
	}
	logger.Info("wrote snapshot", "path", *out, "scenarios", len(snap.Benchmarks))
}
