package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/scrub"
)

// patrol: scrub.Scrubber.Sweep on the batched, journal-free path with
// rewrites on, over a module larger than a core's L2.
const (
	patrolCode   = "poly-m2005"
	patrolLines  = 65536 // 5 MiB of bursts
	patrolWeak   = 66    // lines given one weak cell before each sweep, ~0.1%
	patrolInputs = 16    // distinct seed-derived weak-cell sets per run
	patrolSetups = 3
	patrolTile   = 32 // the scrubber's batch: lines read and decoded together
)

// cell is one planted weak cell.
type cell struct{ line, beat, pin int }

// trackedStore is the module as the scrubber's Store, recording which
// lines a sweep writes back.
type trackedStore struct {
	*dram.Module
	writes []int
}

// WriteBurst implements scrub.Store.
func (s *trackedStore) WriteBurst(i int, b dram.Burst) {
	s.writes = append(s.writes, i)
	s.Module.WriteBurst(i, b)
}

type patrolState struct {
	code   *poly.Code
	store  *trackedStore
	truth  [][poly.LineBytes]byte
	sc     *scrub.Scrubber
	plants [][]cell
}

// patrolSetup builds the codec, the encoded module contents, the
// scrubber, and the weak-cell sets.
func patrolSetup(seed int64) func() (*patrolState, error) {
	return func() (*patrolState, error) {
		lc, err := linecode.New(patrolCode)
		if err != nil {
			return nil, err
		}
		code := lc.(linecode.Poly).C
		st := &patrolState{code: code, store: &trackedStore{Module: dram.NewModule(patrolLines)},
			truth: make([][poly.LineBytes]byte, patrolLines)}
		r := rand.New(rand.NewSource(seed))
		s := code.NewScratch()
		for i := range st.truth {
			r.Read(st.truth[i][:])
			st.store.Module.WriteBurst(i, code.ToBurst(code.EncodeLineScratch(&st.truth[i], s)))
		}
		st.sc, err = scrub.New(code, st.store, scrub.Policy{RewriteCorrected: true})
		for k := 0; k < patrolInputs; k++ {
			st.plants = append(st.plants, weakCells(deriveSeed(seed, k)))
		}
		return st, err
	}
}

// weakCells draws patrolWeak distinct lines with one weak cell each.
func weakCells(seed int64) []cell {
	r := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var out []cell
	for len(out) < patrolWeak {
		line := r.Intn(patrolLines)
		if seen[line] {
			continue
		}
		seen[line] = true
		out = append(out, cell{line, r.Intn(dram.Beats), r.Intn(dram.Pins)})
	}
	return out
}

// plant latches input in's weak cells; the clock is stopped.
func (st *patrolState) plant(in int) error {
	st.store.writes = st.store.writes[:0]
	for _, c := range st.plants[in] {
		if err := st.store.AddWeakCell(c.line, c.beat, c.pin); err != nil {
			return err
		}
	}
	return nil
}

// patrolSweep is one sweep's simulated outcome.
type patrolSweep struct {
	corrected, clean, due int
	iterations            int
	perModel              map[string]int
	writes                int
}

// checkSweep applies the sweep invariants: every planted line corrected
// and rewritten, nothing else written, no DUE, every weak cell healed.
func (st *patrolState) checkSweep(ck *checker, in int, stats scrub.Stats, events []scrub.Event) patrolSweep {
	sw := patrolSweep{corrected: stats.Corrected, clean: stats.Clean, due: stats.DUE,
		perModel: map[string]int{}, writes: len(st.store.writes)}
	for m, n := range stats.PerModel {
		sw.perModel[m.String()] = n
	}
	if stats.DUE > 0 {
		ck.fail(int64(stats.DUE), "patrol input %d: %d DUE lines from single weak cells", in, stats.DUE)
	}
	if stats.Clean+stats.Corrected+stats.DUE != patrolLines || stats.Corrected != len(st.plants[in]) {
		ck.fail(int64(abs(len(st.plants[in])-stats.Corrected)), "patrol input %d: corrected %d of %d planted lines, clean %d",
			in, stats.Corrected, len(st.plants[in]), stats.Clean)
	}
	var corrected []int
	for _, ev := range events {
		switch ev.Report.Status {
		case poly.StatusCorrected:
			corrected = append(corrected, ev.Line)
			sw.iterations += ev.Report.Iterations
		case poly.StatusUncorrectable:
			if slices.Contains(st.store.writes, ev.Line) {
				ck.fail(1, "patrol input %d: DUE line %d was written back", in, ev.Line)
			}
		}
	}
	writes := slices.Clone(st.store.writes)
	slices.Sort(writes)
	slices.Sort(corrected)
	if !slices.Equal(writes, corrected) {
		ck.fail(int64(abs(len(writes)-len(corrected))), "patrol input %d: wrote %d lines for %d corrections", in, len(writes), len(corrected))
	}
	if _, _, weak := st.store.FaultCounts(); weak != 0 {
		ck.fail(int64(weak), "patrol input %d: %d weak cells survived the sweep", in, weak)
	}
	return sw
}

// verifyModule checks that every line decodes clean to its ground truth.
func (st *patrolState) verifyModule(ck *checker) {
	bad := 0
	for i := range st.truth {
		b := st.store.ReadBurst(i)
		data, rep := st.code.DecodeBurst(&b)
		if rep.Status != poly.StatusClean || data != st.truth[i] {
			bad++
		}
	}
	if bad > 0 {
		ck.fail(int64(bad), "patrol: %d lines do not decode clean to their ground truth after the last sweep", bad)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func runPatrol(cfg config) (*result, error) {
	st, setup, err := timeSetup(patrolSetups, patrolSetup(cfg.seed))
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	firsts := make([]patrolSweep, patrolInputs)
	var stats scrub.Stats
	var events []scrub.Event
	t, err := passLoop{
		inputs:  patrolInputs,
		budget:  cfg.budget(),
		prepare: st.plant,
		pass: func(int) (int64, error) {
			stats, events = st.sc.Sweep()
			return patrolLines, nil
		},
		check: func(in int, first bool) {
			sw := st.checkSweep(ck, in, stats, events)
			if first {
				firsts[in] = sw
			} else if fmt.Sprint(sw) != fmt.Sprint(firsts[in]) {
				ck.fail(patrolLines, "patrol input %d: a repeated sweep gave different results", in)
			}
		},
	}.run()
	if err != nil {
		return nil, err
	}
	st.verifyModule(ck)

	var corrected, iterations, writes int
	perModel := map[string]int{}
	for _, sw := range firsts {
		corrected += sw.corrected
		iterations += sw.iterations
		writes += sw.writes
		for m, n := range sw.perModel {
			perModel[m] += n
		}
	}
	fmt.Printf("patrol simulated (%d weak-cell sets x %d lines): corrected=%d due=0 iterations=%d rewrites=%d\n",
		patrolInputs, patrolLines, corrected, iterations, writes)
	fmt.Printf("patrol per-model corrected: %s\n", countsLine(perModel))
	m := t.hostMetrics(setup)
	m["iters_per_correction"] = metric{float64(iterations) / float64(corrected), "trials"}
	return ck.result(t.attempts, m), nil
}

// patrolMirror issues the batched sweep's public calls from a loop the
// benchmark owns: ReadBurst and FromBurstInto per tile, one 32-line
// DecodeLines, and encode/ToBurst/WriteBurst for each corrected line.
type patrolMirror struct {
	st      *patrolState
	scratch *poly.Scratch
	bursts  []dram.Burst
	lines   []poly.Line
	results []poly.Result
}

func (m *patrolMirror) sweep(tr *tracer, ck *checker) {
	st := m.st
	var buf [poly.LineBytes]byte
	for lo := 0; lo < patrolLines; lo += patrolTile {
		tr.setOp(int64(lo / patrolTile))
		op := tr.begin("op.tile", patrolTile)
		sp := tr.begin("dram.read_burst", patrolTile)
		for j := range m.bursts {
			m.bursts[j] = st.store.ReadBurst(lo + j)
		}
		tr.end(sp)
		sp = tr.begin("dram.from_burst", patrolTile)
		for j := range m.bursts {
			m.lines[j] = st.code.FromBurstInto(m.lines[j].Words, &m.bursts[j])
		}
		tr.end(sp)
		sp = tr.begin("poly.decode_tile", 1)
		m.results = st.code.DecodeLines(m.results[:0], m.lines, m.scratch)
		tr.end(sp)
		for j := range m.results {
			res := &m.results[j]
			if res.Err != nil || res.Report.Status == poly.StatusUncorrectable {
				ck.fail(1, "patrol mirror: line %d is uncorrectable", lo+j)
				continue
			}
			if res.Report.Status != poly.StatusCorrected {
				continue
			}
			buf = res.Data
			sp = tr.begin("poly.encode", 1)
			l := st.code.EncodeLineScratch(&buf, m.scratch)
			tr.end(sp)
			sp = tr.begin("dram.to_burst", 1)
			b := st.code.ToBurst(l)
			tr.end(sp)
			sp = tr.begin("dram.write_burst", 1)
			st.store.WriteBurst(lo+j, b)
			tr.end(sp)
		}
		tr.end(op)
	}
}

// mirrorPatrol is the patrol part of a traced run.
func mirrorPatrol(cfg config, lm *layerMetrics, primary bool) error {
	st, err := patrolSetup(cfg.seed)()
	if err != nil {
		return err
	}

	// The untraced workload path: Scrubber.Sweep.
	var sweepMs []float64
	var lines, corrected, iterations, writes int64
	_, _, err = timeLoop(referenceBudget(cfg, primary), 1, func(i int) error {
		if err := st.plant(i % patrolInputs); err != nil {
			return err
		}
		start := time.Now()
		stats, events := st.sc.Sweep()
		sweepMs = append(sweepMs, float64(time.Since(start).Nanoseconds())/1e6)
		sw := st.checkSweep(lm.ck, i%patrolInputs, stats, events)
		lines += patrolLines
		corrected += int64(sw.corrected)
		iterations += int64(sw.iterations)
		writes += int64(sw.writes)
		return nil
	})
	if err != nil {
		return err
	}
	lm.set("scrub.sweep_ms_p50", median(slices.Clone(sweepMs)), "ms", int64(len(sweepMs)))
	lm.set("scrub.corrected_share", float64(corrected)/float64(lines), "ratio", lines)
	lm.set("scrub.rewrites_per_sweep", float64(writes)/float64(len(sweepMs)), "count", int64(len(sweepMs)))
	lm.set("mac.evals_per_op", float64(lines+iterations)/float64(lines), "count", lines)

	m := &patrolMirror{st: st, scratch: st.code.NewScratch(),
		bursts: make([]dram.Burst, patrolTile), lines: make([]poly.Line, patrolTile)}
	tr := newTracer("patrol")
	step := func(i int, t *tracer) error {
		if err := st.plant(i % patrolInputs); err != nil {
			return err
		}
		m.sweep(t, lm.ck)
		return nil
	}
	if primary {
		lm.attempted += lines
		from := len(tr.spans)
		pairs, off, on, err := pairedRuns(cfg.budget()*2/3, tr, step)
		if err != nil {
			return err
		}
		lm.overhead(median(sweepMs)*1e6/patrolLines, pairs, patrolLines, off, on, tr, from)
	} else if err := step(0, tr); err != nil {
		return err
	}
	st.verifyModule(lm.ck)

	lm.spanQuantiles(tr, "dram.read_burst", "dram.read_burst_ns", "", 50)
	lm.spanQuantiles(tr, "dram.from_burst", "dram.from_burst_ns", "", 50, 99)
	lm.spanQuantiles(tr, "poly.decode_tile", "poly.decode_tile_ns", "", 50)
	lm.spanQuantiles(tr, "poly.encode", "poly.encode_ns", "", 50)
	lm.spanQuantiles(tr, "dram.to_burst", "dram.to_burst_ns", "", 50)

	// Clean decodes are sub-microsecond: time them 32 to a span on the
	// module's own (healed) lines.
	sample := make([]poly.Line, 2048)
	for i := range sample {
		b := st.store.ReadBurst(i * (patrolLines / len(sample)))
		sample[i] = st.code.FromBurstInto(nil, &b)
	}
	for rep := 0; rep < 4; rep++ {
		for lo := 0; lo < len(sample); lo += patrolTile {
			sp := tr.begin("poly.decode_clean", patrolTile)
			for _, l := range sample[lo : lo+patrolTile] {
				_, r := st.code.DecodeLineScratch(l, m.scratch)
				if r.Status != poly.StatusClean {
					lm.ck.fail(1, "patrol: healed line decoded %v", r.Status)
				}
			}
			tr.end(sp)
		}
	}
	lm.spanQuantiles(tr, "poly.decode_clean", "poly.decode_clean_ns", "", 50, 99)
	probeFoldAndMAC(tr, lm, st.code, sample[:512])
	lm.keep(tr)
	return nil
}
