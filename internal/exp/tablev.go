package exp

import (
	"fmt"
	"math/rand"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/reliability"
	"polyecc/internal/rowhammer"
	"polyecc/internal/stats"
)

// DefaultKey is the MAC key the experiments share. It lives with the
// codec registry so a code built by name reproduces the published
// tables; the alias remains for the drivers that build bespoke
// configurations (Figure 10's DEC-only code).
var DefaultKey = linecode.DefaultKey

// TableVCodeNames are the registry names of the schemes Table V
// compares at 8-bit symbol folding, in column order.
var TableVCodeNames = []string{"poly-m2005-zr", "rs-sddc", "unity", "bamboo"}

// tableVCodes builds the default comparison set from the registry.
func tableVCodes() []linecode.Code {
	out := make([]linecode.Code, 0, len(TableVCodeNames))
	for _, n := range TableVCodeNames {
		out = append(out, linecode.MustNew(n))
	}
	return out
}

// isPoly reports whether a scheme is a Polymorphic instance — the codes
// whose iteration counts the table tracks. A type assertion, not a name
// comparison: registry labels distinguish the multiplier variants.
func isPoly(c linecode.Code) bool {
	_, ok := c.(linecode.Poly)
	return ok
}

// CodeCell is one (code, fault model) cell of Table V.
type CodeCell struct {
	Code      string
	SDC       float64 // measured share of silently wrong data
	DUE       float64 // measured share of detected uncorrectable errors
	Corrected float64
}

// TableVRow is one fault-model row.
type TableVRow struct {
	SymbolBits  int
	Model       string
	Iterations  stats.Running // Polymorphic correction trials
	AnalyticSDC float64       // avg iterations x 2^-MAC (the §VIII-C estimate)
	Cells       []CodeCell
}

// TableVResult reproduces Table V: fault coverage and correction
// performance of Polymorphic ECC vs RS, Unity, and Bamboo.
type TableVResult struct {
	Rows   []TableVRow
	Trials int
}

// TableV runs the Monte Carlo comparison over the default registry
// codes. trials is the number of corrupted cachelines per (model, code)
// cell; decTrials caps the expensive DEC rows (the paper notes DEC took
// a week on 96 cores at 10^6 trials — scale accordingly).
func TableV(trials, decTrials int, seed int64) TableVResult {
	return TableVWith(trials, decTrials, seed, tableVCodes())
}

// TableVWith is TableV over an explicit code set (the sdcprofiler -codes
// flag). The 16-bit-symbol Polymorphic section only runs when the set
// includes a Polymorphic code, since those rows exist for it alone — the
// baselines keep their 8-bit symbol folding, as in the paper's table.
func TableVWith(trials, decTrials int, seed int64, codes []linecode.Code) TableVResult {
	res := TableVResult{Trials: trials}
	g8 := dram.WordGeometry{SymbolBits: 8}
	models := faults.Models(g8)
	for _, inj := range models {
		n := trials
		if inj.Name() == "DEC" {
			n = decTrials
		}
		res.Rows = append(res.Rows, runModelRow(8, inj, codes, n, seed, 40))
	}

	anyPoly := false
	for _, c := range codes {
		anyPoly = anyPoly || isPoly(c)
	}
	if !anyPoly {
		return res
	}
	g16 := dram.WordGeometry{SymbolBits: 16}
	codes16 := []linecode.Code{linecode.MustNew("poly-m131049")}
	for _, inj := range []faults.Injector{
		faults.ChipKill{Geometry: g16},
		faults.SSC{Geometry: g16},
		faults.DEC{Geometry: g16},
	} {
		n := trials
		if inj.Name() == "DEC" {
			n = decTrials
		}
		res.Rows = append(res.Rows, runModelRow(16, inj, codes16, n, seed+1, 60))
	}
	return res
}

// runModelRow injects one fault model into every code. Each trial
// re-seeds the injector so all codes see the same physical event.
func runModelRow(symBits int, inj faults.Injector, codes []linecode.Code, trials int, seed int64, macBits int) TableVRow {
	row := TableVRow{SymbolBits: symBits, Model: inj.Name()}
	type counts struct{ sdc, due, ok int }
	tally := make([]counts, len(codes))
	for trial := 0; trial < trials; trial++ {
		var data [linecode.LineBytes]byte
		seedRand := rand.New(rand.NewSource(seed + int64(trial)*7919))
		seedRand.Read(data[:])
		for ci, code := range codes {
			burst := code.Encode(&data)
			// Same sub-seed per trial: the same physical fault hits every
			// code's burst.
			faultRand := rand.New(rand.NewSource(seed ^ int64(trial)*104729))
			inj.Inject(faultRand, &burst)
			got, outcome, iters := code.Decode(&burst)
			switch {
			case outcome == linecode.DUE:
				tally[ci].due++
			case got != data:
				tally[ci].sdc++
			default:
				tally[ci].ok++
			}
			if isPoly(code) && outcome == linecode.OK {
				row.Iterations.Add(float64(iters))
			}
		}
	}
	for ci, code := range codes {
		total := float64(trials)
		row.Cells = append(row.Cells, CodeCell{
			Code:      code.Name(),
			SDC:       float64(tally[ci].sdc) / total,
			DUE:       float64(tally[ci].due) / total,
			Corrected: float64(tally[ci].ok) / total,
		})
	}
	row.AnalyticSDC = reliability.SDCPerCorrection(row.Iterations.Mean(), macBits)
	return row
}

// RowhammerRow reproduces the last row of Table V: the default registry
// codes against generated rowhammer patterns (§VIII-E).
func RowhammerRow(patterns int, seed int64) TableVRow {
	return RowhammerRowWith(patterns, seed, tableVCodes())
}

// RowhammerRowWith is RowhammerRow over an explicit code set.
func RowhammerRowWith(patterns int, seed int64, codes []linecode.Code) TableVRow {
	g8 := dram.WordGeometry{SymbolBits: 8}
	gen := rowhammer.New(seed, g8)
	row := TableVRow{SymbolBits: 8, Model: "Rowhammer"}
	type counts struct{ sdc, due, ok int }
	tally := make([]counts, len(codes))
	r := rand.New(rand.NewSource(seed))
	for p := 0; p < patterns; p++ {
		var data [linecode.LineBytes]byte
		r.Read(data[:])
		mask := gen.Next()
		for ci, code := range codes {
			burst := code.Encode(&data)
			burst.Xor(&mask)
			got, outcome, iters := code.Decode(&burst)
			switch {
			case outcome == linecode.DUE:
				tally[ci].due++
			case got != data:
				tally[ci].sdc++
			default:
				tally[ci].ok++
			}
			if isPoly(code) && outcome == linecode.OK {
				row.Iterations.Add(float64(iters))
			}
		}
	}
	for ci, code := range codes {
		total := float64(patterns)
		row.Cells = append(row.Cells, CodeCell{
			Code:      code.Name(),
			SDC:       float64(tally[ci].sdc) / total,
			DUE:       float64(tally[ci].due) / total,
			Corrected: float64(tally[ci].ok) / total,
		})
	}
	row.AnalyticSDC = reliability.SDCPerCorrection(row.Iterations.Mean(), 40)
	return row
}

// RenderTableV formats rows like the paper's Table V.
func RenderTableV(rows []TableVRow) string {
	t := stats.NewTable("Table V: Fault coverage and error correction performance",
		"Symbols", "Fault Model", "Poly iters avg±std", "Poly SDC (analytic)",
		"Code", "SDC", "DUE", "Corrected")
	for _, row := range rows {
		iters := fmt.Sprintf("%.2f ± %.2f", row.Iterations.Mean(), row.Iterations.Std())
		for i, c := range row.Cells {
			sym, model, it, asdc := "", "", "", ""
			if i == 0 {
				sym = fmt.Sprintf("%db", row.SymbolBits)
				model = row.Model
				it = iters
				asdc = fmt.Sprintf("%.2e", row.AnalyticSDC)
			}
			t.AddRow(sym, model, it, asdc, c.Code, c.SDC, c.DUE, c.Corrected)
		}
	}
	return t.String()
}

// Figure10Point is one bar of Figure 10: DEC correction cost vs the
// number of corrupted codewords per cacheline (a proxy for BER).
type Figure10Point struct {
	CorruptedWords int
	Iterations     stats.Running
	AnalyticSDC    float64
	DUE            float64
}

// Figure10 sweeps the corrupted-codeword count for the DEC model on the
// M=2005 code. The code is configured with the DEC fault model alone so
// the sweep isolates the double-bit correction mechanism the paper's
// figure studies (with the full model order, bounded-fault hypotheses
// tried first dominate the iteration counts at low corruption levels).
func Figure10(trials int, seed int64) []Figure10Point {
	cfg := poly.ConfigM2005()
	cfg.Models = []poly.FaultModel{poly.ModelDEC}
	code := linecode.Poly{C: poly.MustNew(cfg, mac.MustSipHash(DefaultKey, 40))}
	g8 := dram.WordGeometry{SymbolBits: 8}
	var out []Figure10Point
	for k := 1; k <= 8; k++ {
		inj := faults.DEC{Geometry: g8, Words: k}
		p := Figure10Point{CorruptedWords: k}
		due := 0
		r := rand.New(rand.NewSource(seed + int64(k)))
		for trial := 0; trial < trials; trial++ {
			var data [linecode.LineBytes]byte
			r.Read(data[:])
			burst := code.Encode(&data)
			inj.Inject(r, &burst)
			_, outcome, iters := code.Decode(&burst)
			if outcome == linecode.DUE {
				due++
				continue
			}
			p.Iterations.Add(float64(iters))
		}
		p.DUE = float64(due) / float64(trials)
		p.AnalyticSDC = reliability.SDCPerCorrection(p.Iterations.Mean(), 40)
		out = append(out, p)
	}
	return out
}

// RenderFigure10 formats the sweep as the artifact's text output.
func RenderFigure10(points []Figure10Point) string {
	t := stats.NewTable("Figure 10: DEC iterations and SDC rate vs corrupted codewords per cacheline",
		"Corrupted codewords", "Iterations avg±std", "SDC (analytic)", "DUE")
	for _, p := range points {
		t.AddRow(p.CorruptedWords,
			fmt.Sprintf("%.1f ± %.1f", p.Iterations.Mean(), p.Iterations.Std()),
			p.AnalyticSDC, p.DUE)
	}
	return t.String()
}
