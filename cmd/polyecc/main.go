// Command polyecc demonstrates a registered cacheline code on a single
// line: encode, inject a fault model of your choosing, and watch the
// decode. For the Polymorphic codes the iterative corrector's full
// report is shown, and with -v the per-trial trace hook logs every
// correction hypothesis it tries; the baseline codes (rs-sddc, unity,
// bamboo, hamming-secded) report their cacheline outcome.
//
// With -journal the decode is also captured by the flight recorder: the
// anomaly record (corrupted words, remainders, candidate trail) is
// written as JSONL for cmd/eccreport — the one-line way to produce a
// forensic artifact to inspect.
//
// Usage:
//
//	polyecc [-code poly-m2005-zr] [-model chipkill|ssc|dec[:N]|bfbf|chipkill+1|random[:N]] [-seed N] [-v] [-metrics-addr :8080]
//	polyecc -journal decode.jsonl
//	polyecc -list
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/latency"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

func main() {
	getCode := linecode.Flag(flag.CommandLine, "code", "poly-m2005-zr", "cacheline code")
	model := flag.String("model", "ssc", "fault model: chipkill, ssc, dec[:N], bfbf, chipkill+1, random[:N]")
	seed := flag.Int64("seed", 1, "deterministic seed")
	list := flag.Bool("list", false, "list the registered codes and exit")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	obs.RegisterJournal(flag.CommandLine)
	flag.Parse()
	logger := obs.Init("polyecc")

	if *list {
		for _, name := range linecode.Names() {
			doc, _ := linecode.Describe(name)
			fmt.Printf("%-16s %s\n", name, doc)
		}
		return
	}

	lc, err := getCode()
	if err != nil {
		telemetry.Fatal(logger, "building code", "err", err)
	}

	// The Polymorphic codes expose the full iterative-correction surface;
	// attach the demo's telemetry and trace hooks to it, and a latency
	// probe so the decode's elapsed time is measured (the probe is the
	// decoder's only clock).
	g := dram.WordGeometry{SymbolBits: 8}
	var code *poly.Code
	if p, ok := lc.(linecode.Poly); ok {
		metrics := telemetry.NewDecodeMetrics()
		metrics.Publish("decode")
		lat := latency.NewCollector()
		lat.Publish("latency")
		code = p.C.WithMetrics(metrics).WithLatency(lat.Probe())
		if obs.Verbose {
			code = code.WithTrace(func(e poly.TraceEvent) {
				logger.Debug("correction trial", "model", e.Model.String(),
					"trial", e.Trial, "word", e.Word, "candidate", e.Candidate, "macMatch", e.MACMatch)
			})
		}
		g.SymbolBits = code.Geometry().SymbolBits
		lc = linecode.Poly{C: code, Label: p.Label}
	}

	inj, err := faults.New(*model, g)
	if err != nil {
		telemetry.Fatal(logger, "building fault model", "err", err)
	}

	r := rand.New(rand.NewSource(*seed))
	var data [linecode.LineBytes]byte
	r.Read(data[:])
	if code != nil {
		fmt.Printf("%s, M=%d: %d-bit symbols, %d codewords/line, %d check bits + %d MAC bits per codeword (%d-bit cacheline MAC)\n",
			lc.Name(), code.M(), g.SymbolBits, code.Words(), code.CheckBits(), code.MACBitsPerWord(), code.LineMACBits())
	} else {
		fmt.Printf("%s cacheline code\n", lc.Name())
	}

	burst := lc.Encode(&data)
	fmt.Printf("encoded %d data bytes into a %d-bit DDR5 burst\n", linecode.LineBytes, dram.BurstBits)

	inj.Inject(r, &burst)
	if code != nil {
		exit := demoPoly(code, obs.Journal, inj, &burst, data)
		obs.WriteJournal(logger, "")
		os.Exit(exit)
	}
	fmt.Printf("injected %s fault\n", inj.Name())
	got, outcome, _ := lc.Decode(&burst)
	if outcome == linecode.DUE {
		fmt.Println("detected uncorrectable error (DUE)")
		os.Exit(1)
	}
	if got == data {
		fmt.Println("data recovered exactly")
	} else {
		fmt.Println("SILENT DATA CORRUPTION")
		os.Exit(2)
	}
}

// demoPoly walks the Polymorphic decode with the full report surface and
// returns the process exit code (0 recovered, 1 DUE, 2 SDC). With a
// journal attached, the decode's forensic record — including the full
// candidate trail — is captured through an AnomalyRecorder.
func demoPoly(code *poly.Code, journal *telemetry.Journal, inj faults.Injector, burst *dram.Burst, data [linecode.LineBytes]byte) int {
	rec := poly.NewAnomalyRecorder(journal, "polyecc", code)
	code = rec.Code()
	line := code.FromBurst(burst)
	corrupted := 0
	for _, w := range line.Words {
		if code.Remainder(w) != 0 {
			corrupted++
		}
	}
	fmt.Printf("injected %s fault: %d of %d codewords have nonzero remainders\n", inj.Name(), corrupted, code.Words())

	got, rep := code.DecodeLine(line)
	rec.RecordDecode(line, &rep, telemetry.Event{}, inj.Name(), rep.Status == poly.StatusCorrected && got != data)
	fmt.Printf("decode: status=%s model=%s iterations=%d eccFixed=%v elapsed=%s\n",
		rep.Status, rep.Model, rep.Iterations, rep.ECCFixed, rep.Elapsed)
	for _, fm := range []poly.FaultModel{poly.ModelChipKill, poly.ModelSSC, poly.ModelDEC, poly.ModelBFBF, poly.ModelChipKillPlus1} {
		if n := rep.TrialsFor(fm); n > 0 {
			fmt.Printf("  %-11s %d trials\n", fm, n)
		}
	}
	if rep.Status == poly.StatusUncorrectable {
		fmt.Println("detected uncorrectable error (DUE)")
		return 1
	}
	if got == data {
		fmt.Println("data recovered exactly")
		return 0
	}
	fmt.Println("SILENT DATA CORRUPTION (MAC collision)")
	return 2
}
