package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/residue"
	"polyecc/internal/scenario"
	"polyecc/internal/wideint"
)

// soak: the polysoak preset (every trial faulted, uniform over the five
// in-model injectors) through scenario.Run at one worker.
const (
	soakCode   = "poly-m2005"
	soakTrials = 5000 // trials per scenario.Run pass
	soakInputs = 4    // distinct seed-derived passes per run
	soakSetups = 5
	// soakCap is the decode iteration cap every decode scenario runs
	// with.
	soakCap = 20000
	// soakCheckTrials is the size of the per-trial check the untraced
	// run makes with the benchmark's own trial loop; its corrected
	// trials give iters_per_correction.
	soakCheckTrials = 32000
	// soakChunk is the trial count of one traced-run mirror step.
	soakChunk = 2000
)

type soakState struct {
	code   linecode.Code
	preset *scenario.Preset
}

// soakSetup builds what a soak run needs before its timed region: the
// codec with its hint tables and the preset.
func soakSetup() (soakState, error) {
	p, ok := scenario.LookupPreset("polysoak")
	if !ok {
		return soakState{}, errors.New("polysoak preset is not registered")
	}
	lc, err := linecode.New(soakCode)
	return soakState{code: lc, preset: p}, err
}

func (st soakState) spec(seed int64, trials int) *scenario.Spec {
	s := st.preset.Build()
	s.SetBudget(trials)
	s.Seed = seed
	s.Code = soakCode
	return s
}

// run is one timed scenario.Run pass.
func (st soakState) run(seed int64, trials int) (scenario.DecodeSummary, error) {
	res, err := scenario.Run(context.Background(), st.spec(seed, trials), scenario.Opts{Workers: 1, Code: st.code})
	if err != nil {
		return scenario.DecodeSummary{}, err
	}
	return res.Decode(), nil
}

// checkSoakPass applies the pass invariants: every trial accounted for,
// no panic, no silent corruption.
func checkSoakPass(ck *checker, d scenario.DecodeSummary, trials int) {
	if d.Partial || d.Completed != trials || d.Clean+d.Corrected+d.Uncorrectable != trials {
		ck.fail(int64(trials-d.Clean-d.Corrected-d.Uncorrectable),
			"soak pass accounted %d+%d+%d of %d trials (partial=%v)", d.Clean, d.Corrected, d.Uncorrectable, trials, d.Partial)
	}
	if d.Panics > 0 || d.SDC > 0 {
		ck.fail(d.Panics+int64(d.SDC), "soak pass: %d panics, %d SDC", d.Panics, d.SDC)
	}
}

func runSoak(cfg config) (*result, error) {
	st, setup, err := timeSetup(soakSetups, soakSetup)
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	firsts := make([]scenario.DecodeSummary, soakInputs)
	var last scenario.DecodeSummary
	t, err := passLoop{
		inputs: soakInputs,
		budget: cfg.budget(),
		pass: func(in int) (int64, error) {
			last, err = st.run(deriveSeed(cfg.seed, in), soakTrials)
			return int64(last.Completed), err
		},
		check: func(in int, first bool) {
			checkSoakPass(ck, last, soakTrials)
			if first {
				firsts[in] = last
			} else if !reflect.DeepEqual(firsts[in], last) {
				ck.fail(int64(soakTrials), "soak input %d: a repeated pass gave different counts", in)
			}
		},
	}.run()
	if err != nil {
		return nil, err
	}

	// The campaign reports counts only. The per-trial checks (no SDC; a
	// DUE only at the iteration cap or from a zero-remainder codeword)
	// and the trials per correction come from the benchmark's own loop
	// issuing the same calls on the same kind of inputs.
	mirror := newSoakMirror(st.code, cfg.seed)
	mt := mirror.trials(nil, deriveSeed(cfg.seed, -1), 0, soakCheckTrials, ck)

	var agg scenario.DecodeSummary
	agg.PerModel = map[string]int{}
	for _, d := range firsts {
		agg.Clean += d.Clean
		agg.Corrected += d.Corrected
		agg.Uncorrectable += d.Uncorrectable
		agg.SDC += d.SDC
		agg.Iterations += d.Iterations
		for k, v := range d.PerModel {
			agg.PerModel[k] += v
		}
	}
	fmt.Printf("soak simulated (%d inputs x %d trials): clean=%d corrected=%d due=%d sdc=%d iterations=%d\n",
		soakInputs, soakTrials, agg.Clean, agg.Corrected, agg.Uncorrectable, agg.SDC, agg.Iterations)
	fmt.Printf("soak per-model corrected: %s\n", countsLine(agg.PerModel))
	fmt.Printf("soak check loop (%d trials): corrected=%d corrected-iterations=%d due=%d (%d at the cap, %d zero-remainder) sdc=%d\n",
		mt.trials, mt.corrected, mt.corrTrials, mt.due, mt.due-int64(mirror.aliased), mirror.aliased, mt.sdc)
	m := t.hostMetrics(setup)
	m["iters_per_correction"] = metric{float64(mt.corrTrials) / float64(mt.corrected), "trials"}
	return ck.result(t.attempts, m), nil
}

// soakMirror issues a soak trial's public calls from a loop the
// benchmark owns — a fresh math/rand source, one in-model injector, the
// wire transpose, and the capped decode — so each call can be timed.
type soakMirror struct {
	code      *poly.Code
	zr        *poly.Code // built on the first early DUE
	aliased   int        // early DUEs explained by a zero remainder
	scratch   *poly.Scratch
	injectors []faults.Injector
	data      [poly.LineBytes]byte
	clean     dram.Burst
}

func newSoakMirror(lc linecode.Code, seed int64) *soakMirror {
	pc := lc.(linecode.Poly).C.WithMaxIterations(soakCap)
	m := &soakMirror{code: pc, scratch: pc.NewScratch(), injectors: faults.InModel(dram.WordGeometry{SymbolBits: 8})}
	rand.New(rand.NewSource(seed)).Read(m.data[:])
	m.clean = pc.ToBurst(pc.EncodeLineScratch(&m.data, m.scratch))
	return m
}

// soakTally is what the mirror loop saw.
type soakTally struct {
	trials, clean, corrected, due, sdc int64
	macEvals                           int64
	crossTrials, corrTrials            int64
	iters                              map[string][]float64 // per correcting model
	lines                              []poly.Line          // a sample of received lines
}

// correctedSpans names corrected-decode spans by model.
var correctedSpans = func() map[poly.FaultModel]string {
	m := map[poly.FaultModel]string{}
	for _, fm := range poly.DefaultModels {
		m[fm] = "poly.decode_corrected." + modelSuffix[fm.String()]
	}
	return m
}()

// add merges another tally into ty.
func (ty *soakTally) add(o *soakTally) {
	ty.trials += o.trials
	ty.clean += o.clean
	ty.corrected += o.corrected
	ty.due += o.due
	ty.sdc += o.sdc
	ty.macEvals += o.macEvals
	ty.crossTrials += o.crossTrials
	ty.corrTrials += o.corrTrials
	for k, v := range o.iters {
		ty.iters[k] = append(ty.iters[k], v...)
	}
	if len(ty.lines) < 512 {
		ty.lines = append(ty.lines, o.lines...)
	}
}

// decodeSpan names a decode span by outcome class and model.
func decodeSpan(rep *poly.Report) string {
	switch rep.Status {
	case poly.StatusClean:
		return "poly.decode_clean"
	case poly.StatusCorrected:
		return correctedSpans[rep.Model]
	}
	return "poly.decode_due"
}

// trials runs mirror trials from..from+n-1, checking each: no SDC, and a
// DUE only at the cap or from a zero-remainder codeword.
func (m *soakMirror) trials(tr *tracer, seed int64, from, n int, ck *checker) *soakTally {
	ty := &soakTally{iters: map[string][]float64{}}
	for i := from; i < from+n; i++ {
		tr.setOp(int64(i))
		op := tr.begin("op.trial", 1)
		sp := tr.begin("campaign.trial_rng", 1)
		r := rand.New(rand.NewSource(deriveSeed(seed, i)))
		tr.end(sp)
		burst := m.clean
		sp = tr.begin("faults.inject", 1)
		m.injectors[r.Intn(len(m.injectors))].Inject(r, &burst)
		tr.end(sp)
		sp = tr.begin("dram.from_burst", 1)
		line := m.code.FromBurstScratch(&burst, m.scratch)
		tr.end(sp)
		sp = tr.begin("poly.decode", 1)
		got, rep := m.code.DecodeLineScratch(line, m.scratch)
		tr.end(sp)
		tr.rename(sp, decodeSpan(&rep))
		tr.end(op)

		ty.trials++
		ty.macEvals += 1 + int64(rep.Iterations)
		switch rep.Status {
		case poly.StatusClean:
			ty.clean++
		case poly.StatusCorrected:
			ty.corrected++
			model := modelSuffix[rep.Model.String()]
			ty.iters[model] = append(ty.iters[model], float64(rep.Iterations))
			ty.corrTrials += int64(rep.Iterations)
			ty.crossTrials += int64(rep.Iterations - rep.TrialsFor(rep.Model))
			if got != m.data {
				ty.sdc++
				ck.fail(1, "soak trial %d: corrected to wrong data (SDC)", i)
			}
		case poly.StatusUncorrectable:
			ty.due++
			if rep.Iterations != soakCap {
				m.checkAliasedDUE(ck, i, &burst, &rep)
			}
		}
		if from == 0 && len(ty.lines) < 512 {
			ty.lines = append(ty.lines, line.Clone())
		}
	}
	return ty
}

// checkAliasedDUE accepts a DUE below the iteration cap only when a
// corrupted codeword kept a zero remainder — an error that is a multiple
// of M, invisible to the remainder scan — and the zero-remainder phase
// of poly-m2005-zr (§VIII-A) corrects the line. Any other early DUE is
// an in-model fault the decoder failed to cover.
func (m *soakMirror) checkAliasedDUE(ck *checker, i int, burst *dram.Burst, rep *poly.Report) {
	g := dram.WordGeometry{SymbolBits: 8}
	hit := 0
	for w := 0; w < g.WordsPerBurst(); w++ {
		if g.Word(burst, w) != g.Word(&m.clean, w) {
			hit++
		}
	}
	if m.zr == nil {
		lc, err := linecode.New("poly-m2005-zr")
		if err != nil {
			ck.fail(1, "soak trial %d: %v", i, err)
			return
		}
		m.zr = lc.(linecode.Poly).C.WithMaxIterations(soakCap)
	}
	s := m.zr.NewScratch()
	got, zrep := m.zr.DecodeLineScratch(m.zr.FromBurstScratch(burst, s), s)
	if hit == rep.CorruptedWords || zrep.Status != poly.StatusCorrected || got != m.data {
		ck.fail(1, "soak trial %d: DUE after %d of %d iterations with %d of %d corrupted codewords seen (zero-remainder decode: %v)",
			i, rep.Iterations, soakCap, rep.CorruptedWords, hit, zrep.Status)
		return
	}
	m.aliased++
}

// mirrorSoak is the soak part of a traced run.
func mirrorSoak(cfg config, lm *layerMetrics, primary bool) error {
	st, err := soakSetup()
	if err != nil {
		return err
	}
	m := newSoakMirror(st.code, cfg.seed)
	seed := deriveSeed(cfg.seed, -2)

	// The untraced workload path: scenario.Run passes.
	var refNs, refAllocs []float64
	_, _, err = timeLoop(referenceBudget(cfg, primary), 1, func(i int) error {
		a0 := mallocs()
		start := time.Now()
		d, err := st.run(deriveSeed(cfg.seed, i%soakInputs), soakTrials)
		el := time.Since(start)
		a1 := mallocs()
		checkSoakPass(lm.ck, d, soakTrials)
		refNs = append(refNs, float64(el.Nanoseconds())/soakTrials)
		refAllocs = append(refAllocs, float64(a1-a0)/soakTrials)
		if primary {
			lm.attempted += soakTrials
		}
		return err
	})
	if err != nil {
		return err
	}
	lm.set("campaign.allocs_per_trial", median(refAllocs), "count", int64(len(refAllocs)))

	tr := newTracer("soak")
	ty := &soakTally{iters: map[string][]float64{}}
	step := func(i int, t *tracer) error {
		got := m.trials(t, seed, i*soakChunk, soakChunk, lm.ck)
		if t != nil {
			ty.add(got)
		}
		return nil
	}
	n := soakChunk
	if primary {
		// The same trials with tracing off and on, alternately.
		from := len(tr.spans)
		pairs, off, on, _ := pairedRuns(cfg.budget()*2/3, tr, step)
		n = pairs * soakChunk
		lm.overhead(median(refNs), pairs, soakChunk, off, on, tr, from)
	} else {
		_ = step(0, tr)
	}

	// Out-of-model lines exhaust the cap: a few forced DUE decodes so
	// the DUE class always has samples.
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 3; i++ {
		burst := m.clean
		faults.RandomBits{N: 24}.Inject(r, &burst)
		line := m.code.FromBurstScratch(&burst, m.scratch)
		tr.setOp(int64(n + i))
		sp := tr.begin("poly.decode", 1)
		_, rep := m.code.DecodeLineScratch(line, m.scratch)
		tr.end(sp)
		tr.rename(sp, decodeSpan(&rep))
	}

	lm.spanQuantiles(tr, "campaign.trial_rng", "campaign.trial_rng_ns", "", 50, 99)
	lm.spanQuantiles(tr, "faults.inject", "faults.inject_ns", "", 50, 99)
	lm.spanQuantiles(tr, "dram.from_burst", "dram.from_burst_ns", "", 50, 99)
	lm.spanQuantiles(tr, "poly.decode_due", "poly.decode_due_ns", "", 50)
	for _, model := range modelSuffix {
		lm.spanQuantiles(tr, "poly.decode_corrected."+model, "poly.decode_corrected_ns", "."+model, 50, 99)
		if it := ty.iters[model]; len(it) > 0 {
			var sum float64
			for _, v := range it {
				sum += v
			}
			lm.set("poly.iters_mean."+model, sum/float64(len(it)), "trials", int64(len(it)))
			lm.quantiles("poly.iters", "."+model, "trials", it, 99)
		}
	}
	lm.set("poly.cross_model_trial_share", float64(ty.crossTrials)/float64(ty.corrTrials), "ratio", ty.corrected)
	lm.set("mac.evals_per_op", float64(ty.macEvals)/float64(ty.trials), "count", ty.trials)
	probeFoldAndMAC(tr, lm, m.code, ty.lines)
	lm.keep(tr)
	fmt.Printf("soak mirror: %d trials, clean=%d corrected=%d due=%d sdc=%d\n", ty.trials, ty.clean, ty.corrected, ty.due, ty.sdc)
	return nil
}

// probeFoldAndMAC times the residue fold and the line MAC on a
// workload's received lines. Both are well under a microsecond per
// call, so each span covers a 32-line tile of words or 64 MACs.
func probeFoldAndMAC(tr *tracer, lm *layerMetrics, code *poly.Code, lines []poly.Line) {
	if len(lines) == 0 {
		return
	}
	tab, err := residue.NewTables(code.M(), code.Geometry())
	if err != nil {
		lm.ck.fail(0, "residue tables: %v", err)
		return
	}
	words := make([]wideint.U192, 0, 32*len(lines[0].Words))
	rems := make([]uint64, 32*len(lines[0].Words))
	sipper := mac.MustSipHash(linecode.DefaultKey, code.LineMACBits())
	var data [poly.LineBytes]byte
	for rep := 0; rep < 8; rep++ {
		for lo := 0; lo+32 <= len(lines); lo += 32 {
			words = words[:0]
			for _, l := range lines[lo : lo+32] {
				words = append(words, l.Words...)
			}
			sp := tr.begin("residue.remainder_batch", len(words))
			tab.RemainderBatch(rems[:len(words)], words)
			tr.end(sp)
		}
		for lo := 0; lo+64 <= len(lines); lo += 64 {
			sp := tr.begin("mac.sum", 64)
			for i := lo; i < lo+64; i++ {
				data[0] = byte(i)
				data[1] = byte(rep)
				sink += sipper.Sum(data[:])
			}
			tr.end(sp)
		}
	}
	if v := tr.perCall("residue.remainder_batch"); len(v) > 0 {
		lm.set("residue.remainder_ns_per_word", median(v), "ns", int64(len(v)))
	}
	lm.spanQuantiles(tr, "mac.sum", "mac.sum_ns", "", 50)
}

// sink keeps probed results live.
var sink uint64
