package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/exp"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/poly"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// memctl: the memctlsoak preset at a fixed 200,000-trial budget through
// scenario.Run with a journal and the adaptive controller. The budget is
// part of the workload: the phases are fractions of it.
const (
	memctlTrials  = 200000
	memctlInputs  = 8       // distinct seed-derived soaks per run
	memctlSetups  = 101     // each build is well under a millisecond
	memctlJournal = 1 << 14 // holds every event of one soak (about 600)
	// memctlT0 is the scenario engine's virtual epoch: trial k of a
	// virtual-clock soak runs at memctlT0 + (k+1)*MemctlTickNs.
	memctlT0 = int64(1_700_000_000_000_000_000)
)

// memctlRun is one soak's set-up: spec, journal, and controller.
type memctlRun struct {
	spec *scenario.Spec
	j    *telemetry.Journal
	ctl  *memctl.Controller
}

func memctlBuild(seed int64) (memctlRun, error) {
	p, ok := scenario.LookupPreset("memctlsoak")
	if !ok {
		return memctlRun{}, errors.New("memctlsoak preset is not registered")
	}
	s := p.Build()
	s.SetBudget(memctlTrials)
	s.Seed = seed
	j := telemetry.NewJournal(memctlJournal)
	ctl, err := memctl.New(exp.MemctlSoakConfig(s.Code, j))
	return memctlRun{s, j, ctl}, err
}

// memctlSoak is one soak's simulated outcome.
type memctlSoak struct {
	counts          map[string]int64
	actions         map[string]int64
	correctedIters  int64
	events, actsTot int64
	healed          bool
}

// run executes the soak (the timed call).
func (r memctlRun) run() (*scenario.Result, error) {
	return scenario.Run(context.Background(), r.spec, scenario.Opts{Journal: r.j, Controller: r.ctl})
}

// check applies the soak invariants: every trial accounted for, no SDC,
// the heal verdict, and a journal that kept every event and accounts
// for every correction trial the engine counted.
func (r memctlRun) check(ck *checker, res *scenario.Result) memctlSoak {
	sq := res.Seq
	c := res.Campaign.Counts
	out := memctlSoak{counts: c, actions: sq.Actions, events: r.j.Recorded(), actsTot: r.ctl.ActionsTotal(), healed: sq.Healed}
	if sq.Partial || sq.Completed != memctlTrials || c["clean"]+c["corrected"]+c["due"]+c["blocked"] != memctlTrials {
		ck.fail(memctlTrials-int64(sq.Completed), "memctl seed %d: %d of %d trials completed", r.spec.Seed, sq.Completed, memctlTrials)
	}
	if c["sdc"] > 0 {
		ck.fail(c["sdc"], "memctl seed %d: %d SDC", r.spec.Seed, c["sdc"])
	}
	if !sq.Healed {
		ck.fail(memctlTrials, "memctl seed %d: the soak did not heal (storm worst %s, final %s)", r.spec.Seed, sq.StormWorst, sq.FinalStatus)
	}
	if r.j.Dropped() > 0 {
		ck.fail(0, "memctl seed %d: journal dropped %d events", r.spec.Seed, r.j.Dropped())
	}
	var iters, corrected int64
	for _, ev := range r.j.Snapshot() {
		a, ok := ev.Detail.(*telemetry.DecodeAnomaly)
		if ev.Kind != telemetry.KindDecodeAnomaly || !ok {
			continue
		}
		iters += int64(a.Iterations)
		if a.Status == poly.StatusCorrected.String() {
			corrected++
			out.correctedIters += int64(a.Iterations)
		}
	}
	if iters != c["iterations"] || corrected != c["corrected"] {
		ck.fail(0, "memctl seed %d: journal holds %d corrections / %d trials, engine counted %d / %d",
			r.spec.Seed, corrected, iters, c["corrected"], c["iterations"])
	}
	return out
}

func runMemctl(cfg config) (*result, error) {
	_, setup, err := timeSetup(memctlSetups, func() (memctlRun, error) { return memctlBuild(cfg.seed) })
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	firsts := make([]memctlSoak, memctlInputs)
	var cur memctlRun
	var res *scenario.Result
	t, err := passLoop{
		inputs: memctlInputs,
		budget: cfg.budget(),
		prepare: func(in int) (err error) {
			cur, err = memctlBuild(deriveSeed(cfg.seed, in))
			return err
		},
		pass: func(int) (int64, error) {
			var err error
			res, err = cur.run()
			if err != nil {
				return 0, err
			}
			return int64(res.Seq.Completed), nil
		},
		check: func(in int, first bool) {
			sk := cur.check(ck, res)
			if first {
				firsts[in] = sk
			} else if !reflect.DeepEqual(sk, firsts[in]) {
				ck.fail(memctlTrials, "memctl input %d: a repeated soak gave a different trajectory", in)
			}
		},
	}.run()
	if err != nil {
		return nil, err
	}

	counts := map[string]int64{}
	actions := map[string]int64{}
	var corrIters, events, healed int64
	for _, sk := range firsts {
		for k, v := range sk.counts {
			counts[k] += v
		}
		for k, v := range sk.actions {
			actions[k] += v
		}
		corrIters += sk.correctedIters
		events += sk.events
		if sk.healed {
			healed++
		}
	}
	fmt.Printf("memctl simulated (%d soaks x %d trials): healed %d/%d, journal events %d\n",
		memctlInputs, memctlTrials, healed, memctlInputs, events)
	fmt.Printf("memctl outcomes: %s\n", countsLine(counts))
	fmt.Printf("memctl actions: %s\n", countsLine(actions))
	m := t.hostMetrics(setup)
	m["iters_per_correction"] = metric{float64(corrIters) / float64(counts["corrected"]), "trials"}
	return ck.result(t.attempts, m), nil
}

// memctlMirror replays a recorded soak from a loop the benchmark owns:
// a controller Tick per trial, each journaled event re-recorded and
// observed in order, and — for the trials that reached a decoder — the
// clean read path (FromBurstInto, DecodeLineScratch). The anomalous
// decodes (about 0.3% of trials) are replayed as clean ones.
type memctlMirror struct {
	events  []telemetry.Event
	decoded int64
	cfg     memctl.Config
	code    *poly.Code
	scratch *poly.Scratch
	clean   dram.Burst
	lines   []poly.Line
}

const memctlBlock = 256 // trials per mirror block

func (m *memctlMirror) replay(tr *tracer) error {
	ctl, err := memctl.New(m.cfg)
	if err != nil {
		return err
	}
	j := telemetry.NewJournal(memctlJournal)
	ev := 0
	for lo := 0; lo < memctlTrials; lo += memctlBlock {
		hi := min(lo+memctlBlock, memctlTrials)
		tr.setOp(int64(lo))
		op := tr.begin("op.block", hi-lo)
		sp := tr.begin("memctl.tick", hi-lo)
		for k := lo; k < hi; k++ {
			ctl.Tick(memctlT0 + int64(k+1)*scenario.MemctlTickNs)
		}
		tr.end(sp)
		end := memctlT0 + int64(hi)*scenario.MemctlTickNs
		from := ev
		for ev < len(m.events) && m.events[ev].TimeNs <= end {
			ev++
		}
		if ev > from {
			sp = tr.begin("telemetry.journal_record", ev-from)
			for _, e := range m.events[from:ev] {
				j.Record(e)
			}
			tr.end(sp)
			for _, e := range m.events[from:ev] {
				sp = tr.begin("memctl.observe", 1)
				ctl.Observe(e)
				tr.end(sp)
			}
		}
		n := int(int64(hi)*m.decoded/memctlTrials - int64(lo)*m.decoded/memctlTrials)
		if n > 0 {
			sp = tr.begin("dram.from_burst", n)
			for i := 0; i < n; i++ {
				m.lines[i] = m.code.FromBurstInto(m.lines[i].Words, &m.clean)
			}
			tr.end(sp)
			sp = tr.begin("poly.decode_clean", n)
			for i := 0; i < n; i++ {
				_, rep := m.code.DecodeLineScratch(m.lines[i], m.scratch)
				sink += uint64(rep.Status)
			}
			tr.end(sp)
		}
		tr.end(op)
	}
	return nil
}

// mirrorMemctl is the memctl part of a traced run.
func mirrorMemctl(cfg config, lm *layerMetrics, primary bool) error {
	var refNs, refAllocs []float64
	var last memctlRun
	var lastRes *scenario.Result
	_, _, err := timeLoop(referenceBudget(cfg, primary), 1, func(i int) error {
		r, err := memctlBuild(deriveSeed(cfg.seed, i%memctlInputs))
		if err != nil {
			return err
		}
		a0 := mallocs()
		start := time.Now()
		res, err := r.run()
		el := time.Since(start)
		refAllocs = append(refAllocs, float64(mallocs()-a0)/memctlTrials)
		if err != nil {
			return err
		}
		refNs = append(refNs, float64(el.Nanoseconds())/memctlTrials)
		r.check(lm.ck, res)
		last, lastRes = r, res
		if primary {
			lm.attempted += memctlTrials
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm.set("campaign.allocs_per_trial", median(refAllocs), "count", int64(len(refAllocs)))
	counts := lastRes.Campaign.Counts
	lm.set("memctl.actions_total", float64(last.ctl.ActionsTotal()), "count", 1)
	lm.set("memctl.blocked_share", float64(counts["blocked"])/memctlTrials, "ratio", memctlTrials)
	lm.set("telemetry.events_per_op", float64(last.j.Recorded())/memctlTrials, "count", memctlTrials)

	tr := newTracer("memctl")
	events := last.j.Snapshot()
	cfgReplay := exp.MemctlSoakConfig(last.spec.Code, nil)
	sp := tr.begin("memctl.replay", len(events))
	rc, err := memctl.Replay(cfgReplay, events)
	tr.end(sp)
	if err != nil {
		return err
	}
	if rc.ActionsTotal() != last.ctl.ActionsTotal() {
		lm.ck.fail(0, "memctl: replaying the journal gave %d actions, the live soak %d", rc.ActionsTotal(), last.ctl.ActionsTotal())
	}

	lc, err := linecode.New(last.spec.Code)
	if err != nil {
		return err
	}
	code := lc.(linecode.Poly).C
	m := &memctlMirror{events: events, decoded: memctlTrials - counts["blocked"], cfg: cfgReplay,
		code: code, scratch: code.NewScratch(), lines: make([]poly.Line, memctlBlock)}
	var data [poly.LineBytes]byte
	rand.New(rand.NewSource(last.spec.Seed)).Read(data[:])
	m.clean = code.ToBurst(code.EncodeLineScratch(&data, m.scratch))
	if primary {
		from := len(tr.spans)
		pairs, off, on, err := pairedRuns(cfg.budget()*2/3, tr, func(_ int, t *tracer) error { return m.replay(t) })
		if err != nil {
			return err
		}
		lm.overhead(median(refNs), pairs, memctlTrials, off, on, tr, from)
	} else if err := m.replay(tr); err != nil {
		return err
	}
	lm.spanQuantiles(tr, "memctl.tick", "memctl.tick_ns", "", 50)
	lm.spanQuantiles(tr, "memctl.observe", "memctl.observe_ns", "", 50)
	lm.spanQuantiles(tr, "telemetry.journal_record", "telemetry.journal_record_ns", "", 50)
	lm.spanQuantiles(tr, "dram.from_burst", "dram.from_burst_ns", "", 50, 99)
	lm.spanQuantiles(tr, "poly.decode_clean", "poly.decode_clean_ns", "", 50, 99)
	lm.keep(tr)
	return nil
}
