// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced Monte Carlo scale, plus ablations of the design
// choices DESIGN.md calls out. Each benchmark iteration runs the same
// driver the cmd tools use; raise the cmd tools' -trials flags for
// paper-scale campaigns.
package polyecc_test

import (
	"context"
	"math/rand"
	"testing"

	"polyecc"
	"polyecc/internal/exp"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/scenario"
)

// BenchmarkTableII profiles out-of-model misdetection for Hamming(72,64)
// and RS(18,16).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableII(2000, 1)
	}
}

// BenchmarkTableIII computes the aliasing-degree histograms for M=511
// and M=2005 (deterministic, matches the paper exactly).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableIII()
	}
}

// BenchmarkTableIV enumerates aliasing degrees for every fault model of
// every configuration.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableIV()
	}
}

// BenchmarkTableV runs the cross-code fault-coverage comparison.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableV(20, 4, 1)
	}
}

// BenchmarkTableVRowhammer replays rowhammer patterns against all codes.
func BenchmarkTableVRowhammer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.RowhammerRow(500, 1)
	}
}

// BenchmarkTableVI builds the hardware cost table (circuit model + real
// hint-table sizes).
func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableVI()
	}
}

// runPreset runs a built-in scenario preset at budget n and seed 1.
func runPreset(b *testing.B, name string, n int) {
	p, ok := scenario.LookupPreset(name)
	if !ok {
		b.Fatalf("preset %q missing", name)
	}
	s := p.Build()
	s.Seed = 1
	s.SetBudget(n)
	if _, err := scenario.Run(context.Background(), s, scenario.Opts{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure4 runs the workload fault-injection campaign (reduced
// injection count).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPreset(b, "figure4", 5)
	}
}

// BenchmarkFigure5 runs the inference fault-injection campaign.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPreset(b, "figure5", 40)
	}
}

// BenchmarkFigure7 sweeps the multiplier trade-off space.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure7(9, 11)
	}
}

// BenchmarkFigure10 sweeps DEC cost vs corrupted codewords.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure10(3, 1)
	}
}

// BenchmarkFigure11 replays workload traces through the timing hierarchy
// with and without the write-path delay.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure11(100000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ---------------------------------------------------------------

var benchKey = [16]byte{0xb, 0xe, 0xa, 0xc, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// corruptSSC applies one random symbol error to every codeword.
func corruptSSC(line polyecc.Line, r *rand.Rand) polyecc.Line {
	bad := line.Clone()
	for w := range bad.Words {
		s := r.Intn(10)
		old := bad.Words[w].Field(s*8, 8)
		bad.Words[w] = bad.Words[w].WithField(s*8, 8, old^uint64(1+r.Intn(255)))
	}
	return bad
}

func benchCorrection(b *testing.B, cfg poly.Config) {
	b.Helper()
	code := poly.MustNew(cfg, mac.MustSipHash(benchKey, 40))
	r := rand.New(rand.NewSource(1))
	var data [poly.LineBytes]byte
	r.Read(data[:])
	line := code.EncodeLine(&data)
	var iters int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bad := corruptSSC(line, r)
		got, rep := code.DecodeLine(bad)
		if rep.Status == poly.StatusUncorrectable || got != data {
			b.Fatal("correction failed")
		}
		iters += int64(rep.Iterations)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
}

// BenchmarkAblationPruner compares the corrector with and without the
// PRUNER (under/overflow + model-consistency filtering).
func BenchmarkAblationPruner(b *testing.B) {
	b.Run("pruned", func(b *testing.B) {
		benchCorrection(b, poly.ConfigM2005())
	})
	b.Run("unpruned", func(b *testing.B) {
		cfg := poly.ConfigM2005()
		cfg.DisablePrune = true
		benchCorrection(b, cfg)
	})
}

// BenchmarkAblationReorderer compares candidate ordering strategies.
func BenchmarkAblationReorderer(b *testing.B) {
	b.Run("reordered", func(b *testing.B) {
		benchCorrection(b, poly.ConfigM2005())
	})
	b.Run("natural", func(b *testing.B) {
		cfg := poly.ConfigM2005()
		cfg.NaturalOrder = true
		benchCorrection(b, cfg)
	})
}

// BenchmarkAblationMultiplier shows the Figure 7 trade-off live: the same
// SSC fault costs more iterations under smaller multipliers.
func BenchmarkAblationMultiplier(b *testing.B) {
	for _, cfg := range []struct {
		name string
		cfg  poly.Config
		bits int
	}{
		{"M511", poly.ConfigM511(), 56},
		{"M1021", poly.ConfigM1021(), 48},
		{"M2005", poly.ConfigM2005(), 40},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			code := poly.MustNew(cfg.cfg, mac.MustSipHash(benchKey, cfg.bits))
			r := rand.New(rand.NewSource(1))
			var data [poly.LineBytes]byte
			r.Read(data[:])
			line := code.EncodeLine(&data)
			var iters int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One corrupted codeword keeps M=511 tractable.
				bad := line.Clone()
				s := r.Intn(10)
				old := bad.Words[0].Field(s*8, 8)
				bad.Words[0] = bad.Words[0].WithField(s*8, 8, old^uint64(1+r.Intn(255)))
				_, rep := code.DecodeLine(bad)
				iters += int64(rep.Iterations)
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
		})
	}
}

// BenchmarkAblationMAC compares the software (SipHash) and hardware-model
// (QARMA-style) MACs on the decode hot path.
func BenchmarkAblationMAC(b *testing.B) {
	for _, m := range []struct {
		name string
		mac  polyecc.MAC
	}{
		{"siphash", mac.MustSipHash(benchKey, 40)},
		{"qarma", mac.MustQarma(benchKey, 40)},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			code := poly.MustNew(poly.ConfigM2005(), m.mac)
			var data [poly.LineBytes]byte
			line := code.EncodeLine(&data)
			line.Words[1] = line.Words[1].FlipBit(33)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, rep := code.DecodeLine(line); rep.Status == poly.StatusUncorrectable {
					b.Fatal("correction failed")
				}
			}
		})
	}
}

// BenchmarkDecodeLine measures the decode hot paths in isolation — the
// scenarios cmd/benchsnap snapshots into BENCH_decode.json. The
// +metrics variants quantify the telemetry overhead; the bare variants
// must stay flat across PRs (a nil hook costs one branch).
func BenchmarkDecodeLine(b *testing.B) {
	var data [polyecc.LineBytes]byte
	rand.New(rand.NewSource(1)).Read(data[:])
	newCode := func(m *polyecc.DecodeMetrics) *polyecc.Code {
		cfg := polyecc.ConfigM2005()
		cfg.Metrics = m
		return polyecc.MustNew(cfg, polyecc.NewSipHashMAC(benchKey, 40))
	}
	bare := newCode(nil)
	instrumented := newCode(polyecc.NewDecodeMetrics())
	clean := bare.EncodeLine(&data)
	bad := clean.Clone()
	bad.Words[3] = bad.Words[3].FlipBit(40) // one data-symbol error
	run := func(code *polyecc.Code, line polyecc.Line, wantClean bool) func(b *testing.B) {
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
	b.Run("clean", run(bare, clean, true))
	b.Run("clean+metrics", run(instrumented, clean, true))
	b.Run("corrected", run(bare, bad, false))
	b.Run("corrected+metrics", run(instrumented, bad, false))
}

// BenchmarkEncodeDecodePath measures the common (fault-free) read/write
// path the memory controller would see.
func BenchmarkEncodeDecodePath(b *testing.B) {
	code := polyecc.MustNew(polyecc.ConfigM2005(), polyecc.NewSipHashMAC(benchKey, 40))
	var data [polyecc.LineBytes]byte
	b.SetBytes(polyecc.LineBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := code.EncodeLine(&data)
		if _, rep := code.DecodeLine(line); rep.Status != polyecc.StatusClean {
			b.Fatal("unexpected status")
		}
	}
}
