package scenario

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/health"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

// SeqPhase summarizes one phase of a sequential scenario run.
type SeqPhase struct {
	Name   string
	Trials int
	// Hammer counts rowhammer accesses, with two meanings. On a drawn
	// schedule it counts every access of a rowhammer client, fenced ones
	// included (they are in Blocked too). On a journal replay it counts
	// only the recorded rowhammer faults actually re-injected, so a
	// replayed step the controller fences is in Blocked alone (the
	// 8,000-trial seed-1 memctlsoak replay golden has 103 rowhammer
	// steps and reports 101). The memctl equivalence and replay goldens
	// pin both meanings.
	Hammer    int
	Blocked   int // accesses the controller fenced (quarantine/retire)
	Clean     int
	Corrected int
	DUE       int
	SDC       int
	Worst     string // worst health state seen during the phase
	End       string // health state when the phase ended
}

// SeqResult summarizes one sequential (virtual-clock) scenario run.
// The controller fields are empty when the scenario does not close the
// memctl loop; the scrub counters are zero without a patrol.
type SeqResult struct {
	Code         string
	Trials       int
	Completed    int
	Partial      bool
	AggressorRow int
	Phases       []SeqPhase
	Actions      map[string]int64
	ModelOrder   []string
	RetiredPages []int
	Migrations   []memctl.RegionCodec
	ScrubPeak    int
	FinalScrub   string
	StormWorst   string
	FinalStatus  string
	// Healed is the closed-loop verdict: the storm degraded health, the
	// controller escalated the patrol and quarantined the aggressor's
	// victims, and health returned to ok by the end of recovery.
	Healed bool
	// ScrubSweeps/ScrubFindings count the engine's own standing-fault
	// patrol (Spec.Scrub), distinct from the controller's scrub cadence.
	ScrubSweeps   int `json:",omitempty"`
	ScrubFindings int `json:",omitempty"`
}

// vclock is the virtual-clock driver's state: one goroutine runs every
// trial in order, so closed-loop memctl feedback, scrub patrols,
// standing faults and non-uniform arrivals see globally ordered time.
type vclock struct {
	p         *plan
	opts      Opts
	rng       *rand.Rand
	counts    counts
	seq       *SeqResult
	lanes     map[string]*lane // by codec registry name
	lat       *runLat
	wl        *workerLat // the loop's one set of latency handles, shared by every lane
	now       int64
	burstLeft []int // per-client arrivals left in the current gamma burst

	// Standing faults persist on their line as XOR deltas against the
	// clean burst until a patrol heals them.
	standing   map[int]dram.Burst
	scrubEvery int64
	nextScrub  int64

	ctl         *memctl.Controller
	sub         *telemetry.Subscription
	evbuf       []telemetry.Event
	regionLines int
	actions     int64    // controller actions seen by the last drain
	order       []string // the controller's decided model order
	gen         int      // bumped whenever order changes
}

// runSeq runs a plan on the single-threaded virtual-clock driver. The
// whole run — injected faults, health trajectory, controller actions —
// is a pure function of the seed (and, for a replay, the recording).
func runSeq(ctx context.Context, p *plan, opts Opts) (*Result, error) {
	s := p.spec
	e := &vclock{
		p: p, opts: opts,
		rng:         rand.New(rand.NewSource(s.Seed)),
		counts:      counts{},
		seq:         &SeqResult{Code: s.Code, Trials: s.Trials, AggressorRow: p.aggr},
		lanes:       map[string]*lane{},
		lat:         newRunLat(s, opts, p),
		now:         virtualT0,
		burstLeft:   make([]int, len(s.Clients)),
		standing:    map[int]dram.Burst{},
		regionLines: 64,
	}
	e.wl = e.lat.worker(p)
	if s.Scrub != nil {
		e.scrubEvery = s.Scrub.IntervalMs * int64(time.Millisecond)
		e.nextScrub = virtualT0 + e.scrubEvery
	}
	if s.Memctl != nil && s.Memctl.Enabled {
		if opts.Controller == nil {
			return nil, fmt.Errorf("scenario %q: memctl enabled but no controller supplied", s.Name)
		}
		if !opts.Journal.Enabled() {
			return nil, fmt.Errorf("scenario %q: the memctl loop needs a journal — the controller consumes it", s.Name)
		}
		e.ctl = opts.Controller
		if s.Memctl.RegionLines > 0 {
			e.regionLines = s.Memctl.RegionLines
		}
		// Synchronous feedback: after every trial the subscription is
		// drained to empty, so the controller has seen everything the
		// trial journaled (and its own just-emitted actions) before the
		// next access is decided.
		e.sub = opts.Journal.Subscribe(16384)
		defer e.sub.Close()
	}
	// The spec's own codec is built before the first trial, so a code
	// that cannot run fails the call instead of a partial run.
	if _, err := e.laneAt(0); err != nil {
		return nil, err
	}

	started := time.Now()
	arrive := e.arrive
	var stormWorst health.State
	var err error
	for pi := range p.phases {
		span := &p.phases[pi]
		from := maps.Clone(e.counts)
		worst := health.StateOK
		for k := span.start; k < span.end && err == nil; k++ {
			if err = ctx.Err(); err == nil {
				err = e.trial(k, arrive, &worst)
			}
		}
		e.endPhase(span, from, worst)
		if span.hammer && worst > stormWorst {
			stormWorst = worst
		}
		if err != nil {
			break
		}
	}
	return e.finish(started, stormWorst, err), err
}

// trial runs trial k: draw its step, run a patrol when one is due, then
// fence or decode the access and feed the controller everything the
// trial journaled.
func (e *vclock) trial(k int, arrive func(ci int) int64, worst *health.State) error {
	st := e.p.next(k, e.rng, e.counts, arrive)
	if e.scrubEvery > 0 && st.timeNs >= e.nextScrub {
		if err := e.patrol(st.timeNs); err != nil {
			return err
		}
		e.nextScrub += ((st.timeNs-e.nextScrub)/e.scrubEvery + 1) * e.scrubEvery
	}
	if st.line < 0 {
		st.line = 0 // the virtual clock always has an address: default to one line
	}
	// A drawn hammer access counts even when fenced; a replayed one only
	// when its recorded fault is re-injected.
	hammer := st.fault != nil && st.fault.Kind == "rowhammer"
	if hammer && st.client >= 0 {
		e.counts.Record("hammer")
	}
	if e.ctl != nil && e.ctl.Blocked(st.line) {
		// A fenced access: time still passes, so releases and relaxes
		// stay on schedule.
		e.counts.Record("blocked")
		e.ctl.Tick(st.timeNs)
	} else {
		if hammer && st.client < 0 {
			e.counts.Record("hammer")
		}
		l, err := e.laneAt(st.line)
		if err != nil {
			return err
		}
		l.burst = l.clean
		injected := ""
		if delta, ok := e.standing[st.line]; ok {
			l.burst.Xor(&delta)
			injected = "standing"
		}
		if st.fault != nil {
			injected = l.apply(e.counts, e.rng, st.fault)
			if st.fault.Standing {
				delta := l.burst
				delta.Xor(&l.clean)
				if delta == (dram.Burst{}) {
					delete(e.standing, st.line)
				} else {
					e.standing[st.line] = delta
				}
			}
		}
		// The controller tick happens before the anomaly is recorded so
		// the journal order matches the decision order: epoch-boundary
		// pure decisions (releases, relaxes, migrations) are made before
		// this trial's anomaly is observed, live and on replay alike.
		if e.ctl != nil {
			e.ctl.Tick(st.timeNs)
		}
		l.decode(e.counts, &st, 0, injected)
	}
	e.drain()
	e.seq.Completed++
	if e.ctl != nil {
		if h := e.ctl.Health().State(); h > *worst {
			*worst = h
		}
		if lvl := e.ctl.ScrubLevel(); lvl > e.seq.ScrubPeak {
			e.seq.ScrubPeak = lvl
		}
	}
	return nil
}

// arrive advances the virtual clock by client ci's arrival process.
// Uniform consumes no randomness, keeping single-client and uniform
// scenarios on the bare seeded stream.
func (e *vclock) arrive(ci int) int64 {
	cp := &e.p.clients[ci]
	tick := e.p.spec.TickNs
	switch a := cp.c.Arrival; {
	case a == nil || a.Process == "" || a.Process == "uniform":
		e.now += tick
	case a.Process == "poisson":
		gap := int64(e.rng.ExpFloat64() * float64(tick))
		if gap < 1 {
			gap = 1
		}
		e.now += gap
	case a.Process == "gamma":
		// Bursts of burstEvery arrivals packed at quarter-tick spacing,
		// separated by exponential gaps with mean burstEvery ticks.
		if e.burstLeft[ci] == 0 {
			gap := int64(e.rng.ExpFloat64() * float64(tick) * float64(cp.burstEvery))
			if gap < tick {
				gap = tick
			}
			e.now += gap
			e.burstLeft[ci] = cp.burstEvery
		} else {
			e.now += tick/4 + 1
		}
		e.burstLeft[ci]--
	}
	return e.now
}

// laneAt resolves the lane protecting a line — the controller's codec
// for its region, or the spec's code without a controller — and brings
// it up to the controller's decided model order. Every codec protects
// the same payload, so a region migration is just a re-encode of the
// shared data under the next codec on the ladder.
func (e *vclock) laneAt(line int) (*lane, error) {
	s := e.p.spec
	name := s.Code
	if e.ctl != nil {
		name = e.ctl.CodecName(line / e.regionLines)
	}
	l, ok := e.lanes[name]
	if !ok {
		var pre linecode.Code
		if name == s.Code {
			pre = e.opts.Code
		}
		_, code, err := resolveCode(s, name, pre, e.opts.Metrics)
		if err != nil {
			return nil, err
		}
		if e.wl != nil {
			// One probe for the whole loop: every codec on the ladder
			// shares it, so op-class timings aggregate across codecs the
			// way the outcome counts do.
			code = code.WithLatency(e.wl.probe)
		}
		l = newLane(s, e.opts.Journal, code, e.p.models, e.wl)
		e.lanes[name] = l
	}
	if l.gen != e.gen {
		l.reorder(e.ctl.Models())
		l.gen = e.gen
	}
	return l, nil
}

// drain feeds the controller everything journaled since the last call,
// its own just-emitted actions included, until the subscription is
// empty. When the controller acted, it notes whether the decided model
// order changed, so lanes re-apply an order only when there is a new
// one.
func (e *vclock) drain() {
	if e.ctl == nil {
		return
	}
	for {
		e.evbuf = e.sub.Poll(e.evbuf[:0])
		if len(e.evbuf) == 0 {
			break
		}
		e.ctl.ObserveAll(e.evbuf)
	}
	if n := e.ctl.ActionsTotal(); n != e.actions {
		e.actions = n
		if order := e.ctl.ModelNames(); !slices.Equal(order, e.order) {
			e.order = order
			e.gen++
		}
	}
}

// patrol sweeps the standing faults in line order at virtual time now:
// a correctable line is written back healed, an uncorrectable one stays
// until fenced, and every finding is journaled.
func (e *vclock) patrol(now int64) error {
	e.seq.ScrubSweeps++
	lines := make([]int, 0, len(e.standing))
	for line := range e.standing {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	j := e.opts.Journal
	for _, line := range lines {
		l, err := e.laneAt(line)
		if err != nil {
			return err
		}
		l.burst = l.clean
		delta := e.standing[line]
		l.burst.Xor(&delta)
		rl := l.rec.Code().FromBurstScratch(&l.burst, l.scratch)
		_, rep := l.rec.Code().DecodeLineScratch(rl, l.scratch)
		outcome := "corrected"
		switch rep.Status {
		case poly.StatusClean:
			outcome = "clean"
			delete(e.standing, line)
		case poly.StatusCorrected:
			delete(e.standing, line) // the patrol writes the corrected line back
			e.seq.ScrubFindings++
		case poly.StatusUncorrectable:
			outcome = "due" // beyond repair: the fault stays until fenced
			e.seq.ScrubFindings++
		}
		if j.Enabled() {
			j.Record(telemetry.Event{
				Kind: telemetry.KindScrubFinding, Source: e.p.spec.Name, Name: "scrub",
				Index: line, Outcome: outcome, TimeNs: now,
			})
		}
	}
	return nil
}

// endPhase appends a phase's summary: its tallies are what its trials
// added to the run counts. Wall-clock time stays off the trajectory
// (the latency digest carries it), so SeqResult remains a pure function
// of the event stream that replay and equivalence pin bit for bit.
func (e *vclock) endPhase(span *phaseSpan, from counts, worst health.State) {
	added := func(label string) int { return int(e.counts[label] - from[label]) }
	ph := SeqPhase{
		Name: span.name, Trials: span.end - span.start,
		Hammer: added("hammer"), Blocked: added("blocked"),
		Clean: added("clean"), Corrected: added("corrected"), DUE: added("due"), SDC: added("sdc"),
		Worst: worst.String(),
	}
	if e.ctl != nil {
		ph.End = e.ctl.Health().State().String()
	}
	e.seq.Phases = append(e.seq.Phases, ph)
}

// finish assembles the Result; a non-nil err marks a partial run.
func (e *vclock) finish(started time.Time, stormWorst health.State, err error) *Result {
	s := e.p.spec
	partial := err != nil
	e.seq.Partial = partial
	e.seq.StormWorst = stormWorst.String()
	if e.ctl != nil {
		snap := e.ctl.Snapshot()
		e.seq.Actions = snap.ByKind
		e.seq.ModelOrder = snap.ModelOrder
		e.seq.RetiredPages = snap.RetiredPages
		e.seq.Migrations = snap.Migrations
		e.seq.FinalScrub = snap.ScrubInterval
		e.seq.FinalStatus = e.ctl.Health().State().String()
		e.seq.Healed = !partial && stormWorst >= health.StateWarn &&
			e.ctl.Health().State() == health.StateOK &&
			e.seq.Actions[memctl.ActionScrubEscalate] > 0 &&
			e.seq.Actions[memctl.ActionQuarantine] > 0
	}
	return &Result{
		Spec: s,
		Campaign: campaign.Result{
			Name: s.Name, Trials: s.Trials, Completed: e.seq.Completed,
			Partial: partial, Elapsed: time.Since(started), Counts: e.counts,
		},
		Seq:          e.seq,
		AggressorRow: e.p.aggr,
		Schedule:     e.p.schedule,
		CodeLabel:    s.Code,
		Latency:      e.lat.digest(e.p),
	}
}
