package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/rowhammer"
	"polyecc/internal/telemetry"
)

// Soak geometry shared by the storm presets and the health engine: the
// line address space the storm soaks hammer, and the lines per DRAM
// row (matching the health engine's default RowLines so the signature
// classifier sees the same row arithmetic).
const (
	StormLines    = 1024
	StormRowLines = 8
)

// StormShare is the storm presets' hammer-client traffic fraction; the
// rest is uniform background in-model faults, the noise floor the
// health engine's spatial classifier must see through.
const StormShare = 0.9

// virtualT0 is the fixed virtual epoch scenarios with a tick run from
// (2023-11-14T22:13:20Z) — the same epoch as the self-healing soak, so
// recorded journals line up across scenario kinds.
const virtualT0 = int64(1_700_000_000_000_000_000)

// Self-healing soak cadence: the virtual time per trial (2ms, i.e. 500
// trials/sec of simulated traffic) and the per-trial probability of a
// background in-model fault outside the storm — ~2 errors/sec of
// virtual time, burning the corrected-rate SLO budget at exactly 1x, so
// only the storm moves the health state machine.
const (
	MemctlTickNs      = 2_000_000
	MemctlBackgroundP = 0.004
)

// decodeMaxIterations is the N_max bound that keeps worst-case DEC
// correction trials sane, shared by every decode scenario.
const decodeMaxIterations = 20000

// Result is one executed scenario.
type Result struct {
	// Spec is the validated spec the run executed (budget and defaults
	// resolved).
	Spec *Spec
	// Campaign is the underlying engine result: outcome label counts,
	// completion, partial/panic bookkeeping. Sequential scenarios fill
	// it with the Seq result's aggregate counts, so reports and the
	// -summary document have one shape for every kind.
	Campaign campaign.Result
	// Seq carries the per-phase trajectory of a sequential run.
	Seq *SeqResult
	// Baselines maps an inference client to its clean accuracy.
	Baselines map[string]float64
	// AggressorRow is the seed-derived hammered row of a hotrow
	// scenario, -1 when no client hammers.
	AggressorRow int
	// Schedule is the injection schedule a replay scenario executed.
	Schedule []ReplayStep
	// CodeLabel is the display name of the decoded scheme
	// ("Polymorphic(M=2005) (M=2005)"-style), decode/replay kinds only.
	CodeLabel string
	// Latency is the run's latency digest, nil unless latency recording
	// was enabled (Opts.Latency or the spec's latency stanza).
	Latency *LatencyDigest `json:",omitempty"`
}

// Run executes a validated spec. This is the one engine behind every
// campaign: the paper's Figure 4/5 studies, the soaks, replays, and any
// user-authored -spec file all flow through here, so workers/timeout/
// checkpoint/journal wiring exists exactly once (Opts).
//
// Decode and replay specs share one trial pipeline. A plan supplies
// each trial's step — drawn from the spec's clients, or read from a
// recorded journal — and a lane injects the step's fault, decodes, and
// classifies the outcome. One of two drivers runs the steps: the
// campaign driver, sharded across workers, or the virtual-clock driver
// when the spec needs globally ordered time.
func Run(ctx context.Context, s *Spec, opts Opts) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var p *plan
	switch {
	case s.Kind == KindReplay:
		var err error
		if p, err = replayPlan(s, opts); err != nil {
			return nil, err
		}
	case s.Trials <= 0:
		return nil, fmt.Errorf("scenario %q: a positive trial budget is required (set trials, or -n on the command line)", s.Name)
	case s.Kind == KindPrograms:
		return runPrograms(ctx, s, opts)
	case s.Kind == KindInference:
		return runInference(ctx, s, opts)
	default:
		p = newPlan(s)
	}
	if s.Sequential() {
		return runSeq(ctx, p, opts)
	}
	return runCampaign(ctx, p, opts)
}

// --- spec compilation -------------------------------------------------------

// phaseSpan is one compiled phase: a contiguous trial-index span with
// its active client subset and their cumulative selection fractions.
type phaseSpan struct {
	name   string
	start  int
	end    int
	active []int     // client indices, phase order
	cum    []float64 // cumulative renormalized fractions over active
	hammer bool      // any active client injects rowhammer faults
}

// clientPlan is one compiled client: epoch switch points resolved to
// trial indices.
type clientPlan struct {
	c          *Client
	envSwitch  []int       // trial index each successive env takes over at
	envs       []*FaultEnv // envs[0] = base, envs[i] from envSwitch[i-1]
	burstEvery int         // gamma arrivals per burst
}

// plan is a spec compiled against its trial budget: every fraction
// resolved to exact indices so both drivers (campaign and virtual
// clock) walk identical schedules. A replay's plan carries the
// recorded steps instead of clients.
type plan struct {
	spec    *Spec
	clients []clientPlan
	phases  []phaseSpan
	blocks  []int // block-selection client boundaries over the budget
	aggr    int   // seed-derived aggressor row, -1 when unused
	models  []string
	// labels are the per-client outcome labels ("client.<name>"), built
	// once; nil for a single client, which records none.
	labels []string
	// schedule and replay are a replay's recorded schedule and the steps
	// compiled from it; nil for a drawn schedule.
	schedule []ReplayStep
	replay   []step
}

func newPlan(s *Spec) *plan {
	p := &plan{spec: s, aggr: -1}
	fr := clientFractions(s.Clients)
	p.blocks = boundaries(s.Trials, fr)
	if len(s.Clients) > 1 {
		for i := range s.Clients {
			p.labels = append(p.labels, "client."+s.Clients[i].Name)
		}
	}

	seen := map[string]bool{}
	hammerClient := make([]bool, len(s.Clients))
	for i := range s.Clients {
		c := &s.Clients[i]
		cp := clientPlan{c: c, envs: []*FaultEnv{c.Faults}, burstEvery: 8}
		if c.Arrival != nil && c.Arrival.Burst > 0 {
			cp.burstEvery = c.Arrival.Burst
		}
		for _, e := range c.Epochs {
			cp.envSwitch = append(cp.envSwitch, int(math.Round(e.From*float64(s.Trials))))
			cp.envs = append(cp.envs, e.Faults)
		}
		for _, env := range cp.envs {
			if env == nil {
				continue
			}
			if env.Kind == "rowhammer" {
				hammerClient[i] = true
			}
			if env.Kind == "model" && !seen[env.Model] {
				seen[env.Model] = true
				p.models = append(p.models, env.Model)
			}
		}
		if c.Access != nil && c.Access.Pattern == "hotrow" {
			if c.Access.Row > 0 {
				p.aggr = c.Access.Row
			} else if p.aggr < 0 {
				// The aggressor row comes from the scenario seed alone, so
				// every run (and every resume, at any worker count) hammers
				// the same rows.
				rows := s.Lines / s.RowLines
				p.aggr = 1 + rand.New(rand.NewSource(s.Seed)).Intn(rows-2)
			}
		}
		p.clients = append(p.clients, cp)
	}

	// Compile phases to index spans. No phases = one span, all clients.
	specPhases := s.Phases
	if len(specPhases) == 0 {
		specPhases = []Phase{{Name: s.Name, Fraction: 1}}
	}
	shares := make([]float64, len(specPhases))
	for i := range specPhases {
		shares[i] = specPhases[i].Fraction
	}
	bounds := boundaries(s.Trials, shares)
	start := 0
	for i := range specPhases {
		ph := phaseSpan{name: specPhases[i].Name, start: start, end: bounds[i]}
		start = bounds[i]
		if len(specPhases[i].Clients) == 0 {
			for ci := range s.Clients {
				ph.active = append(ph.active, ci)
			}
		} else {
			for _, name := range specPhases[i].Clients {
				for ci := range s.Clients {
					if s.Clients[ci].Name == name {
						ph.active = append(ph.active, ci)
					}
				}
			}
		}
		sum := 0.0
		for _, ci := range ph.active {
			sum += fr[ci]
			if hammerClient[ci] {
				ph.hammer = true
			}
		}
		cumv := 0.0
		for _, ci := range ph.active {
			cumv += fr[ci] / sum
			ph.cum = append(ph.cum, cumv)
		}
		p.phases = append(p.phases, ph)
	}
	return p
}

// phaseIdx finds the position of the span holding a trial index.
func (p *plan) phaseIdx(index int) int {
	for i := range p.phases {
		if index < p.phases[i].end {
			return i
		}
	}
	return len(p.phases) - 1
}

// pickClient selects the trial's client. A single active client draws
// nothing — the rule that keeps single-client presets (the soaks) on
// the RNG sequences testdata/golden_legacy.json pins.
func (p *plan) pickClient(r *rand.Rand, ph *phaseSpan) int {
	if len(ph.active) == 1 {
		return ph.active[0]
	}
	f := r.Float64()
	for i, c := range ph.cum {
		if f < c {
			return ph.active[i]
		}
	}
	return ph.active[len(ph.active)-1]
}

// blockClient maps a trial index to its client under block selection —
// contiguous per-client index ranges, the Figure 4/5 stratification.
// It consumes no randomness.
func (p *plan) blockClient(index int) int {
	for ci, b := range p.blocks {
		if index < b {
			return ci
		}
	}
	return len(p.blocks) - 1
}

// envAt resolves a client's fault environment at a trial index,
// honouring its chip-failure epochs.
func (p *plan) envAt(ci, index int) *FaultEnv {
	cp := &p.clients[ci]
	env := cp.envs[0]
	for i, at := range cp.envSwitch {
		if index >= at {
			env = cp.envs[i+1]
		}
	}
	return env
}

// drawLine draws the trial's line address for a client, or -1 when the
// scenario has no address space (the soak shape — no draw at all).
func (p *plan) drawLine(r *rand.Rand, ci int) int {
	s := p.spec
	c := p.clients[ci].c
	pattern := "uniform"
	if c.Access != nil && c.Access.Pattern != "" {
		pattern = c.Access.Pattern
	}
	switch pattern {
	case "fixed":
		return c.Access.Line
	case "hotrow":
		// The flip lands in one of the aggressor's two victim rows, on a
		// random line within that row.
		victim := p.aggr - 1
		if r.Intn(2) == 1 {
			victim = p.aggr + 1
		}
		return victim*s.RowLines + r.Intn(s.RowLines)
	case "zipf":
		sExp := c.Access.ZipfS
		if sExp == 0 {
			sExp = 1.2
		}
		return int(rand.NewZipf(r, sExp, 1, uint64(s.Lines-1)).Uint64())
	default: // uniform
		if s.Lines <= 0 {
			return -1
		}
		return r.Intn(s.Lines)
	}
}

// step is one trial's access: the client issuing it (-1 for a
// replayed step), its phase, the line (-1 when the scenario has no
// address space), the virtual time (0 stamps wall-clock time), and the
// fault to inject (nil for none).
type step struct {
	client int
	phase  int
	line   int
	timeNs int64
	fault  *FaultEnv
}

// next supplies trial k's step. A replay reads its recorded step and
// draws nothing. A drawn trial picks its client (its block, or a
// fraction-weighted draw), its arrival time, its line, and whether its
// fault environment fires, in that order, from r, and counts the
// client in tl. arrive, set by the virtual-clock driver, advances the
// clock for the chosen client; without it a trial is stamped from its
// index.
func (p *plan) next(k int, r *rand.Rand, tl tally, arrive func(ci int) int64) step {
	if p.replay != nil {
		return p.replay[k]
	}
	s := p.spec
	st := step{phase: p.phaseIdx(k)}
	if s.Selection == "block" {
		st.client = p.blockClient(k)
	} else {
		st.client = p.pickClient(r, &p.phases[st.phase])
	}
	if p.labels != nil {
		tl.Record(p.labels[st.client])
	}
	if arrive != nil {
		st.timeNs = arrive(st.client)
	} else if s.TickNs > 0 {
		st.timeNs = virtualT0 + int64(k+1)*s.TickNs
	}
	st.line = p.drawLine(r, st.client)
	env := p.envAt(st.client, k)
	if env != nil && env.Kind != "" && env.Kind != "none" &&
		(env.Rate <= 0 || env.Rate >= 1 || r.Float64() < env.Rate) {
		st.fault = env
	}
	return st
}

// tally receives a trial's outcome labels: the campaign trial's own
// counters, or the virtual-clock driver's run totals.
type tally interface {
	Record(label string)
	Add(label string, n int64)
}

// counts is the virtual-clock driver's tally.
type counts map[string]int64

func (c counts) Record(label string)       { c[label]++ }
func (c counts) Add(label string, n int64) { c[label] += n }

// modelLabels are the per-model correction labels, built once so no
// trial concatenates one.
var modelLabels = func() map[poly.FaultModel]string {
	m := make(map[poly.FaultModel]string, len(poly.DefaultModels))
	for _, fm := range poly.DefaultModels {
		m[fm] = "model." + fm.String()
	}
	return m
}()

// --- the trial pipeline -----------------------------------------------------

// lane is the decode state of one codec: the code and its anomaly
// recorder, a scratch, the clean line every trial starts from, the
// working burst faults land in (kept here so handing it to an injector
// allocates nothing), and the fault injectors keyed by spec model name
// and by display name (the name a journal records, which a replay
// re-injects by). The campaign driver builds one per worker, the
// virtual-clock driver one per codec on the controller's migration
// ladder; every lane's line derives from the scenario seed alone, so
// outcomes never depend on which lane ran a trial.
type lane struct {
	base    *poly.Code // instrumented code in its configured model order
	journal *telemetry.Journal
	source  string
	rec     *poly.AnomalyRecorder
	scratch *poly.Scratch
	data    [poly.LineBytes]byte
	clean   dram.Burst
	burst   dram.Burst
	g       dram.WordGeometry
	inModel []faults.Injector
	byName  map[string]faults.Injector
	lat     *workerLat
	gen     int // the controller order generation rec's code follows
}

// resolveCode builds the Polymorphic instance a lane decodes with: pre
// when already built (Opts.Code, the shape the shared -code flag
// resolver hands a command), the registry name otherwise; capped at
// decodeMaxIterations and carrying the run's decode metrics.
func resolveCode(s *Spec, name string, pre linecode.Code, m *telemetry.DecodeMetrics) (linecode.Code, *poly.Code, error) {
	lc := pre
	if lc == nil {
		built, err := linecode.New(name)
		if err != nil {
			return nil, nil, err
		}
		lc = built
	}
	p, ok := lc.(linecode.Poly)
	if !ok {
		return nil, nil, fmt.Errorf("scenario %q: decode scenarios need a Polymorphic code, got %s", s.Name, lc.Name())
	}
	return lc, p.C.WithMaxIterations(decodeMaxIterations).WithMetrics(m), nil
}

// newLane builds a lane over code in its configured model order.
func newLane(s *Spec, j *telemetry.Journal, code *poly.Code, models []string, lat *workerLat) *lane {
	l := &lane{base: code, journal: j, source: s.Name, lat: lat}
	l.g = dram.WordGeometry{SymbolBits: code.Geometry().SymbolBits}
	l.inModel = faults.InModel(l.g)
	l.byName = make(map[string]faults.Injector, len(l.inModel)+len(models))
	for _, inj := range l.inModel {
		l.byName[inj.Name()] = inj
	}
	for _, name := range models {
		inj, err := faults.New(name, l.g)
		if err != nil {
			// Validate() vetted every model name; a miss here is a bug.
			panic(err)
		}
		l.byName[name] = inj
	}
	rand.New(rand.NewSource(s.Seed)).Read(l.data[:])
	l.reorder(nil)
	return l
}

// reorder points the lane at its base code with the decided models
// tried first and the rest in their configured order (WithModels shares
// the hint tables, so this is cheap), and rebuilds the recorder,
// scratch and clean line over it.
func (l *lane) reorder(decided []poly.FaultModel) {
	code := l.base
	if len(decided) > 0 {
		have := code.Models()
		order := make([]poly.FaultModel, 0, len(have))
		for _, m := range decided {
			if slices.Contains(have, m) {
				order = append(order, m)
			}
		}
		for _, m := range have {
			if !slices.Contains(order, m) {
				order = append(order, m)
			}
		}
		reordered, err := code.WithModels(order)
		if err != nil {
			// order holds exactly the code's own models; a miss is a bug.
			panic(err)
		}
		code = reordered
	}
	l.rec = poly.NewAnomalyRecorder(l.journal, l.source, code)
	l.scratch = l.rec.Code().NewScratch()
	l.clean = l.rec.Code().ToBurst(l.rec.Code().EncodeLineScratch(&l.data, l.scratch))
}

// apply injects one fault into the working burst and returns the
// journal label of what it injected. A replayed model the lane has no
// injector for (one outside the in-model set, such as RandomBits)
// leaves the line as it is and is counted, never silently modeled as
// something else.
func (l *lane) apply(tl tally, r *rand.Rand, env *FaultEnv) string {
	var inj faults.Injector
	switch env.Kind {
	case "rowhammer":
		mask := rowhammer.New(r.Int63(), l.g).Next()
		l.burst.Xor(&mask)
		return "rowhammer"
	case "in-model":
		inj = l.inModel[r.Intn(len(l.inModel))]
	default:
		if inj = l.byName[env.Model]; inj == nil {
			tl.Record("replay.unmodeled")
			return ""
		}
	}
	inj.Inject(r, &l.burst)
	return inj.Name()
}

// decode runs the working burst through Algorithm 2, classifies the
// outcome into tl, attributes its latency to the step's client and
// phase, and journals it when anomalous.
func (l *lane) decode(tl tally, st *step, worker int, injected string) {
	code := l.rec.Code()
	rl := code.FromBurstScratch(&l.burst, l.scratch)
	got, rep := code.DecodeLineScratch(rl, l.scratch)
	l.lat.observe(st, rep.Elapsed)
	tl.Add("iterations", int64(rep.Iterations))
	sdc := false
	switch rep.Status {
	case poly.StatusClean:
		tl.Record("clean")
	case poly.StatusCorrected:
		tl.Record("corrected")
		tl.Record(modelLabels[rep.Model])
		if got != l.data {
			sdc = true
			tl.Record("sdc")
		}
	case poly.StatusUncorrectable:
		tl.Record("due")
	}
	l.rec.RecordDecode(rl, &rep, telemetry.Event{Worker: worker, Index: st.line, TimeNs: st.timeNs}, injected, sdc)
}

// --- the campaign driver ----------------------------------------------------

// runCampaign runs a plan on the campaign engine: trials sharded across
// workers with per-trial splitmix64 RNG, checkpoint/resume, panic
// isolation — bit-identical counts at any worker count.
func runCampaign(ctx context.Context, p *plan, opts Opts) (*Result, error) {
	s := p.spec
	lc, code, err := resolveCode(s, s.Code, opts.Code, opts.Metrics)
	if err != nil {
		return nil, err
	}
	lat := newRunLat(s, opts, p)
	cfg := opts.config(s.Name, s.Trials, s.Seed, "sdc", "due", campaign.PanicLabel)
	cfg.WorkerState = func() any {
		wl := lat.worker(p)
		wcode := code
		if wl != nil {
			// Per-worker probe: every decode/encode of this worker lands
			// in its own uncontended stripes on the shared collector.
			wcode = code.WithLatency(wl.probe)
		}
		return newLane(s, opts.Journal, wcode, p.models, wl)
	}
	res, err := campaign.Run(ctx, cfg, func(t *campaign.Trial) {
		l := t.Local.(*lane)
		st := p.next(t.Index, t.RNG, t, nil)
		if st.line < 0 {
			st.line = t.Index // no address space: journal the trial index
		}
		l.burst = l.clean
		injected := ""
		if st.fault != nil {
			injected = l.apply(t, t.RNG, st.fault)
		}
		l.decode(t, &st, t.Worker, injected)
	})
	return &Result{
		Spec:         s,
		Campaign:     res,
		AggressorRow: p.aggr,
		Schedule:     p.schedule,
		CodeLabel:    fmt.Sprintf("%s (M=%d)", lc.Name(), code.M()),
		Latency:      lat.digest(p),
	}, err
}

// --- derived summaries ------------------------------------------------------

// DecodeSummary is the outcome digest of a decode (or replay) scenario:
// the in-model soak's outcome counts plus the scenario extras
// (per-client counts, the aggressor row).
type DecodeSummary struct {
	Code          string // display name of the decoded scheme
	Trials        int    // requested budget
	Completed     int    // trials accounted for (== Trials unless Partial)
	Partial       bool
	Panics        int64
	Clean         int
	Corrected     int
	Uncorrectable int
	SDC           int // corrected but wrong data (MAC collision)
	PerModel      map[string]int
	Iterations    int64 // total correction trials
	PerClient     map[string]int
	AggressorRow  int // -1 when no client hammers
}

// Decode derives the decode-kind digest from the campaign counts.
func (r *Result) Decode() DecodeSummary {
	res := r.Campaign
	d := DecodeSummary{
		Code:          r.CodeLabel,
		Trials:        r.Spec.Trials,
		Completed:     res.Completed,
		Partial:       res.Partial,
		Panics:        res.Panics,
		Clean:         int(res.Count("clean")),
		Corrected:     int(res.Count("corrected")),
		Uncorrectable: int(res.Count("due")),
		SDC:           int(res.Count("sdc")),
		PerModel:      map[string]int{},
		Iterations:    res.Count("iterations"),
		PerClient:     map[string]int{},
		AggressorRow:  r.AggressorRow,
	}
	for label, n := range res.Counts {
		if model, ok := strings.CutPrefix(label, "model."); ok {
			d.PerModel[model] = int(n)
		}
		if client, ok := strings.CutPrefix(label, "client."); ok {
			d.PerClient[client] = int(n)
		}
	}
	return d
}
