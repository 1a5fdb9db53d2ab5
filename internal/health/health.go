// Package health is the live health engine of the repo: it consumes the
// flight-recorder journal as a stream (telemetry.Journal.Subscribe),
// maintains sliding-window and EWMA error rates per fault class, per
// fault model, and per address-bucketed region, classifies fault
// signatures online (rowhammer storms, repeat-offender lines, scrub
// recurrence), and runs multi-window SLO burn-rate alerting with an
// OK/WARN/PAGE state machine.
//
// The engine is event-time driven: every rate is computed from the
// timestamps the events themselves carry, so replaying a journal file
// reproduces the live run's health trajectory exactly, and the seeded
// storm tests are deterministic on any machine. A WallClock config
// makes the *serving* surfaces (/healthz, /regions, ecctop) evaluate
// against the machine clock too, so rates decay when a live run goes
// quiet.
//
// It is the controller-facing telemetry interface the adaptive
// protection-policy engine (internal/memctl) plugs into: Snapshot is the
// full machine-readable region/signature picture, and Strongest and
// HotRegions are the narrow reads a controller makes every decision
// epoch.
package health

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"polyecc/internal/telemetry"
)

// Class buckets every journal event the engine understands.
type Class int

const (
	// ClassCorrected is a successful correction (decode recovered).
	ClassCorrected Class = iota
	// ClassDUE is a detected-uncorrectable error.
	ClassDUE
	// ClassSDC is a silent data corruption / misdetect: the decode
	// "succeeded" but produced wrong data (MAC collision).
	ClassSDC
	// ClassScrub is a patrol-scrub finding (corrected or DUE during a
	// background sweep).
	ClassScrub

	numClasses
)

// String renders the class for labels and JSON.
func (c Class) String() string {
	switch c {
	case ClassCorrected:
		return "corrected"
	case ClassDUE:
		return "due"
	case ClassSDC:
		return "sdc"
	case ClassScrub:
		return "scrub"
	}
	return "unknown"
}

// Config tunes the engine. The zero value gets production defaults from
// withDefaults; tests override the thresholds they exercise.
type Config struct {
	// BucketNs is the sliding-window bucket width (default 1s) and
	// WindowBuckets the slow-window length in buckets (default 60, so a
	// 60s slow window); FastWindowBuckets is the fast burn window
	// (default 5).
	BucketNs          int64
	WindowBuckets     int
	FastWindowBuckets int
	// EWMAAlpha weights the per-bucket EWMA fold (default 0.3).
	EWMAAlpha float64

	// RegionLines is the address-bucketing granularity of the heatmap
	// (default 64 lines per region); RowLines the lines per DRAM row used
	// by the rowhammer classifier (default 8). MaxRegions bounds the
	// region map (default 4096; overflow is counted, not tracked).
	RegionLines int
	RowLines    int
	MaxRegions  int

	// RecentCap bounds the hit ring the signature classifier scans
	// (default 4096). RowhammerMin / RepeatMin / ScrubRepeatMin are the
	// evidence floors of the three signatures (defaults 16 / 8 / 4).
	RecentCap      int
	RowhammerMin   int
	RepeatMin      int
	ScrubRepeatMin int

	// SLO budgets in sustainable events/sec (defaults: corrected 0.5,
	// DUE 0.05, SDC 0.005 — SDC a hundred times scarcer than routine
	// correction), and the burn-rate thresholds (warn 2x, page 10x) with
	// the downgrade hold-down in calm evaluations (default 3).
	BudgetCorrected float64
	BudgetDUE       float64
	BudgetSDC       float64
	WarnBurn        float64
	PageBurn        float64
	HoldDown        int

	// MaxAlerts bounds the retained alert timeline (default 128).
	MaxAlerts int

	// WallClock makes VitalSigns/RegionsPayload evaluate at the machine
	// clock rather than the newest event time — set it on live servers so
	// state decays when events stop; leave it off for deterministic
	// replay and tests.
	WallClock bool

	// Journal, when non-nil, receives a typed region-evict event every
	// time the MaxRegions cap forces a region out of the heatmap — caps
	// are never silent. The engine skips its own eviction events when it
	// observes them back through a subscription.
	Journal *telemetry.Journal

	// SubscriptionCap is the journal subscription ring size used by
	// Start (default 8192).
	SubscriptionCap int
}

func (c Config) withDefaults() Config {
	def := func(v *int64, d int64) {
		if *v <= 0 {
			*v = d
		}
	}
	defi := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.BucketNs, int64(time.Second))
	defi(&c.WindowBuckets, 60)
	defi(&c.FastWindowBuckets, 5)
	deff(&c.EWMAAlpha, 0.3)
	defi(&c.RegionLines, 64)
	defi(&c.RowLines, 8)
	defi(&c.MaxRegions, 4096)
	defi(&c.RecentCap, 4096)
	defi(&c.RowhammerMin, 16)
	defi(&c.RepeatMin, 8)
	defi(&c.ScrubRepeatMin, 4)
	deff(&c.BudgetCorrected, 0.5)
	deff(&c.BudgetDUE, 0.05)
	deff(&c.BudgetSDC, 0.005)
	deff(&c.WarnBurn, 2)
	deff(&c.PageBurn, 10)
	defi(&c.HoldDown, 3)
	defi(&c.MaxAlerts, 128)
	defi(&c.SubscriptionCap, 8192)
	return c
}

// Alert is one entry of the engine's alert timeline: an SLO state
// transition or a newly detected fault signature.
type Alert struct {
	TimeNs   int64  `json:"time_unix_ns"`
	Severity string `json:"severity"` // "warn", "page", or "info"
	Kind     string `json:"kind"`     // "slo-burn" or the signature kind
	Message  string `json:"message"`
}

// regionStat is the live per-region aggregate behind the heatmap.
type regionStat struct {
	counts  [numClasses]int64
	errWin  *window // corrections+SDC+DUE rate window
	lastNs  int64
	firstNs int64
}

// RegionStat is the JSON heatmap row for one region.
type RegionStat struct {
	Region    int     `json:"region"`
	FirstLine int     `json:"first_line"`
	Corrected int64   `json:"corrected"`
	DUE       int64   `json:"due"`
	SDC       int64   `json:"sdc"`
	Scrub     int64   `json:"scrub"`
	RateSlow  float64 `json:"err_rate_per_sec"`
	FirstNs   int64   `json:"first_unix_ns"`
	LastNs    int64   `json:"last_unix_ns"`
}

// ClassStat is the JSON rate summary for one event class.
type ClassStat struct {
	Total    int64   `json:"total"`
	RateFast float64 `json:"rate_fast_per_sec"`
	RateSlow float64 `json:"rate_slow_per_sec"`
	EWMA     float64 `json:"ewma_per_bucket"`
}

// Snapshot is the full engine picture — the /regions payload, the
// eccreport health section, and what ecctop renders.
type Snapshot struct {
	NowNs         int64                `json:"now_unix_ns"`
	Status        State                `json:"status"`
	Events        int64                `json:"events_observed"`
	SubDropped    int64                `json:"subscription_dropped"`
	RegionsTotal  int                  `json:"regions_total"`
	RegionsOver   int64                `json:"regions_overflowed,omitempty"`
	Classes       map[string]ClassStat `json:"classes"`
	Models        map[string]int64     `json:"models,omitempty"`
	Regions       []RegionStat         `json:"regions"`
	Signatures    []Signature          `json:"signatures,omitempty"`
	SLOs          []SLOStat            `json:"slos"`
	Alerts        []Alert              `json:"alerts,omitempty"`
	EvalEpoch     int64                `json:"eval_epoch"`
	WindowSeconds float64              `json:"window_seconds"`
}

// Metrics is the engine's own telemetry, publishable into expvar (and
// thence /metrics as labeled Prometheus series).
type Metrics struct {
	Events       telemetry.Counter        // journal events observed
	ClassEvents  telemetry.LabeledCounter // by class
	Signatures   telemetry.LabeledCounter // signature detections by kind
	Alerts       telemetry.LabeledCounter // alerts by severity
	IterByModel  *telemetry.LabeledHistogram
	GapNsByClass *telemetry.LabeledHistogram
}

// Engine is the live health engine. Feed it with Observe (synchronous,
// e.g. journal replay) or Start (a goroutine pumping a journal
// subscription). All methods are safe for concurrent use.
type Engine struct {
	cfg Config

	mu             sync.Mutex
	nowNs          int64 // event-time frontier: max event TimeNs seen
	lastEvalEpoch  int64
	events         int64
	classes        [numClasses]*window
	classLastNs    [numClasses]int64
	models         map[string]int64
	regions        map[int]*regionStat
	regionsOver    int64
	recent         *hitRing
	slos           []*sloTracker
	active         map[string]Signature // currently-supported signatures
	alerts         []Alert
	anomalySources map[string]bool // sources whose trial-outcomes would double-count
	sub            *telemetry.Subscription

	metrics Metrics
}

// New builds an engine with cfg (zero value = defaults).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:            cfg,
		models:         map[string]int64{},
		regions:        map[int]*regionStat{},
		recent:         newHitRing(cfg.RecentCap),
		active:         map[string]Signature{},
		anomalySources: map[string]bool{},
	}
	for c := Class(0); c < numClasses; c++ {
		e.classes[c] = newWindow(cfg.BucketNs, cfg.WindowBuckets, cfg.EWMAAlpha)
	}
	for _, s := range []struct {
		class  Class
		budget float64
	}{
		{ClassCorrected, cfg.BudgetCorrected},
		{ClassDUE, cfg.BudgetDUE},
		{ClassSDC, cfg.BudgetSDC},
	} {
		e.slos = append(e.slos, &sloTracker{class: s.class, budget: s.budget, win: e.classes[s.class]})
	}
	e.metrics.IterByModel = telemetry.NewLabeledHistogram(telemetry.ExpBuckets(1, 2, 16)...)
	e.metrics.GapNsByClass = telemetry.NewLabeledHistogram(telemetry.ExpBuckets(1_000, 4, 12)...)
	return e
}

// Publish registers the engine's own collectors under prefix
// (idempotently): prefix.events, prefix.class_events, prefix.signatures,
// prefix.alerts, prefix.iterations_by_model, prefix.gap_ns_by_class.
func (e *Engine) Publish(prefix string) {
	telemetry.Publish(prefix+".events", &e.metrics.Events)
	telemetry.Publish(prefix+".class_events", &e.metrics.ClassEvents)
	telemetry.Publish(prefix+".signatures", &e.metrics.Signatures)
	telemetry.Publish(prefix+".alerts", &e.metrics.Alerts)
	telemetry.Publish(prefix+".iterations_by_model", e.metrics.IterByModel)
	telemetry.Publish(prefix+".gap_ns_by_class", e.metrics.GapNsByClass)
}

// Start subscribes the engine to j and pumps events in a background
// goroutine until the returned stop function is called (which drains
// the subscription one last time before returning). A nil or disabled
// journal yields a no-op stop.
func (e *Engine) Start(j *telemetry.Journal) (stop func()) {
	sub := j.Subscribe(e.cfg.SubscriptionCap)
	if sub != nil {
		e.mu.Lock()
		e.sub = sub
		e.mu.Unlock()
	}
	return sub.Run(e.ObserveAll)
}

// ObserveAll feeds a batch of events through Observe.
func (e *Engine) ObserveAll(events []telemetry.Event) {
	for i := range events {
		e.Observe(events[i])
	}
}

// Observe feeds one journal event into the engine: it advances the
// event-time frontier, updates the class/model/region windows, logs the
// hit for signature classification, and — once per completed time
// bucket — reclassifies signatures and evaluates the SLO state
// machines.
func (e *Engine) Observe(ev telemetry.Event) { e.ObserveClassify(ev) }

// ObserveClassify is Observe returning the event's health
// classification (class, line address, and whether the event counted) —
// the hook a policy controller uses to drive its own per-line state off
// exactly the classification the engine applied.
func (e *Engine) ObserveClassify(ev telemetry.Event) (Class, int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events++
	e.metrics.Events.Add(1)
	if ev.TimeNs > e.nowNs {
		e.nowNs = ev.TimeNs
	}

	class, line, ok := e.classify(&ev)
	if ok {
		e.metrics.ClassEvents.Add(class.String(), 1)
		e.classes[class].add(ev.TimeNs, 1)
		if last := e.classLastNs[class]; last != 0 && ev.TimeNs > last {
			e.metrics.GapNsByClass.Observe(class.String(), ev.TimeNs-last)
		}
		e.classLastNs[class] = ev.TimeNs
		e.observeRegion(class, line, ev.TimeNs)
		e.recent.add(hit{line: line, timeNs: ev.TimeNs, class: class})
		if da, ok := ev.AnomalyDetail(); ok && da.Model != "" {
			e.models[da.Model]++
			e.metrics.IterByModel.Observe(da.Model, int64(da.Iterations))
		}
	}

	if epoch := e.nowNs / e.cfg.BucketNs; epoch > e.lastEvalEpoch {
		evals := int(epoch - e.lastEvalEpoch)
		e.lastEvalEpoch = epoch
		e.evalLocked(e.nowNs, evals)
	}
	return class, line, ok
}

// Advance moves the event-time frontier to nowNs without recording an
// event, running any bucket-boundary evaluations that completes — the
// heartbeat hook replay drivers and the memory controller use so rates
// decay and signatures expire during quiet stretches of virtual time.
// A frontier in the past is ignored (event time is monotonic).
func (e *Engine) Advance(nowNs int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if nowNs > e.nowNs {
		e.nowNs = nowNs
	}
	if epoch := e.nowNs / e.cfg.BucketNs; epoch > e.lastEvalEpoch {
		evals := int(epoch - e.lastEvalEpoch)
		e.lastEvalEpoch = epoch
		e.evalLocked(e.nowNs, evals)
	}
}

// classify maps a journal event to its health class and line address.
// Unclassifiable events (spans, duplicate trial outcomes) return
// ok=false.
func (e *Engine) classify(ev *telemetry.Event) (class Class, line int, ok bool) {
	switch ev.Kind {
	case telemetry.KindScrubFinding:
		return ClassScrub, ev.Index, true
	case telemetry.KindDecodeAnomaly:
		// Remember the source so its campaign trial-outcome events (which
		// describe the same decodes) are not double-counted below.
		if ev.Source != "" {
			e.anomalySources[ev.Source] = true
		}
		if da, ok := ev.AnomalyDetail(); ok && da.SDC {
			return ClassSDC, ev.Index, true
		}
		switch ev.Outcome {
		case "corrected", "clean": // clean+journaled = Update-ECC fix
			return ClassCorrected, ev.Index, true
		case "uncorrectable", "due":
			return ClassDUE, ev.Index, true
		case "miscorrected", "sdc":
			return ClassSDC, ev.Index, true
		}
	case telemetry.KindTrialOutcome:
		if e.anomalySources[ev.Source] {
			return 0, 0, false
		}
		switch ev.Outcome {
		case "corrected":
			return ClassCorrected, ev.Index, true
		case "due", "uncorrectable":
			return ClassDUE, ev.Index, true
		case "sdc", "miscorrected":
			return ClassSDC, ev.Index, true
		}
	}
	return 0, 0, false
}

func (e *Engine) observeRegion(class Class, line int, tNs int64) {
	region := line / e.cfg.RegionLines
	rs := e.regions[region]
	if rs == nil {
		if len(e.regions) >= e.cfg.MaxRegions {
			e.evictRegionLocked(tNs)
		}
		rs = &regionStat{
			errWin:  newWindow(e.cfg.BucketNs, e.cfg.WindowBuckets, e.cfg.EWMAAlpha),
			firstNs: tNs,
		}
		e.regions[region] = rs
	}
	rs.counts[class]++
	rs.errWin.add(tNs, 1)
	if tNs > rs.lastNs {
		rs.lastNs = tNs
	}
}

// evictRegionLocked drops the least-recently-hit region (ties broken by
// the lower region id) to make room at the MaxRegions cap, journaling a
// typed region-evict event carrying the dropped region's final stats —
// the cap shrinks the heatmap, never the record of what was lost.
func (e *Engine) evictRegionLocked(tNs int64) {
	victim, found := 0, false
	var vs *regionStat
	for region, rs := range e.regions {
		if !found || rs.lastNs < vs.lastNs || (rs.lastNs == vs.lastNs && region < victim) {
			victim, vs, found = region, rs, true
		}
	}
	if !found {
		return
	}
	delete(e.regions, victim)
	e.regionsOver++
	e.cfg.Journal.Record(telemetry.Event{
		Kind:    telemetry.KindRegionEvict,
		Source:  "health",
		Index:   victim,
		TimeNs:  tNs,
		Outcome: "evicted",
		Detail: RegionStat{
			Region:    victim,
			FirstLine: victim * e.cfg.RegionLines,
			Corrected: vs.counts[ClassCorrected],
			DUE:       vs.counts[ClassDUE],
			SDC:       vs.counts[ClassSDC],
			Scrub:     vs.counts[ClassScrub],
			RateSlow:  vs.errWin.rate(tNs, e.cfg.WindowBuckets),
			FirstNs:   vs.firstNs,
			LastNs:    vs.lastNs,
		},
	})
}

// evalLocked reclassifies signatures and steps every SLO tracker.
// Callers hold e.mu.
func (e *Engine) evalLocked(nowNs int64, evals int) {
	windowNs := int64(e.cfg.WindowBuckets) * e.cfg.BucketNs
	sigs := classifySignatures(e.recent, nowNs, windowNs, &e.cfg)
	next := make(map[string]Signature, len(sigs))
	for _, s := range sigs {
		k := s.key()
		if prev, seen := e.active[k]; seen {
			s.FirstNs = prev.FirstNs
		} else {
			e.metrics.Signatures.Add(s.Kind, 1)
			e.pushAlertLocked(Alert{
				TimeNs:   nowNs,
				Severity: "warn",
				Kind:     s.Kind,
				Message:  signatureMessage(s),
			})
		}
		next[k] = s
	}
	e.active = next

	for _, t := range e.slos {
		if a := t.eval(nowNs, &e.cfg, evals); a != nil {
			e.pushAlertLocked(*a)
		}
	}
}

func signatureMessage(s Signature) string {
	switch s.Kind {
	case "rowhammer-storm":
		return "rowhammer storm: " + itoa(s.Count) + " corrections clustered in neighbor rows of aggressor row " + itoa(s.Row)
	case "repeat-offender":
		return "repeat offender: line " + itoa(s.Line) + " hit " + itoa(s.Count) + " times in window (trending permanent)"
	case "scrub-recurrence":
		return "scrub recurrence: region " + itoa(s.Region) + " re-flagged by " + itoa(s.Count) + " patrol findings"
	}
	return s.Kind
}

// itoa avoids importing strconv solely for alert text.
func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

func (e *Engine) pushAlertLocked(a Alert) {
	e.metrics.Alerts.Add(a.Severity, 1)
	e.alerts = append(e.alerts, a)
	if over := len(e.alerts) - e.cfg.MaxAlerts; over > 0 {
		e.alerts = append(e.alerts[:0], e.alerts[over:]...)
	}
}

// now returns the evaluation clock: the event-time frontier, or the
// wall clock when it is ahead and WallClock serving is on.
func (e *Engine) now() int64 {
	n := e.nowNs
	if e.cfg.WallClock {
		if w := time.Now().UnixNano(); w > n {
			n = w
		}
	}
	return n
}

// evalNowLocked runs the evaluation every read of the engine starts
// with and returns the evaluation clock. Reads always evaluate: upgrades
// are immediate even mid-bucket (a sub-second storm must page before its
// first bucket boundary), while downgrade hold-down only advances with
// completed buckets (evals), so polling cannot fast-forward the
// hysteresis. Callers hold e.mu.
func (e *Engine) evalNowLocked() int64 {
	now := e.now()
	evals := 0
	if epoch := now / e.cfg.BucketNs; epoch > e.lastEvalEpoch {
		evals = int(epoch - e.lastEvalEpoch)
		e.lastEvalEpoch = epoch
	}
	e.evalLocked(now, evals)
	return now
}

// Snapshot returns the full current health picture. On a WallClock
// engine it first advances evaluation to the machine clock, so rates
// decay and alerts resolve even when events have stopped.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.evalNowLocked()

	snap := Snapshot{
		NowNs:         now,
		Status:        e.overallLocked(),
		Events:        e.events,
		SubDropped:    e.sub.Dropped(),
		RegionsTotal:  len(e.regions),
		RegionsOver:   e.regionsOver,
		Classes:       make(map[string]ClassStat, numClasses),
		EvalEpoch:     e.lastEvalEpoch,
		WindowSeconds: float64(int64(e.cfg.WindowBuckets)*e.cfg.BucketNs) / 1e9,
	}
	for c := Class(0); c < numClasses; c++ {
		w := e.classes[c]
		snap.Classes[c.String()] = ClassStat{
			Total:    w.total,
			RateFast: w.rate(now, e.cfg.FastWindowBuckets),
			RateSlow: w.rate(now, e.cfg.WindowBuckets),
			EWMA:     w.ewma,
		}
	}
	if len(e.models) > 0 {
		snap.Models = make(map[string]int64, len(e.models))
		for m, n := range e.models {
			snap.Models[m] = n
		}
	}
	snap.Regions = make([]RegionStat, 0, len(e.regions))
	for region, rs := range e.regions {
		snap.Regions = append(snap.Regions, RegionStat{
			Region:    region,
			FirstLine: region * e.cfg.RegionLines,
			Corrected: rs.counts[ClassCorrected],
			DUE:       rs.counts[ClassDUE],
			SDC:       rs.counts[ClassSDC],
			Scrub:     rs.counts[ClassScrub],
			RateSlow:  rs.errWin.rate(now, e.cfg.WindowBuckets),
			FirstNs:   rs.firstNs,
			LastNs:    rs.lastNs,
		})
	}
	sort.Slice(snap.Regions, func(a, b int) bool { return snap.Regions[a].Region < snap.Regions[b].Region })
	snap.Signatures = make([]Signature, 0, len(e.active))
	for _, s := range e.active {
		snap.Signatures = append(snap.Signatures, s)
	}
	sort.Slice(snap.Signatures, func(a, b int) bool {
		if snap.Signatures[a].Kind != snap.Signatures[b].Kind {
			return snap.Signatures[a].Kind < snap.Signatures[b].Kind
		}
		return snap.Signatures[a].Count > snap.Signatures[b].Count
	})
	for _, t := range e.slos {
		snap.SLOs = append(snap.SLOs, t.stat(now, &e.cfg))
	}
	snap.Alerts = append([]Alert(nil), e.alerts...)
	return snap
}

// Strongest evaluates the engine exactly as Snapshot does and returns
// the kind and count of the active signature with the highest count
// among kinds; on equal counts the kind that sorts first wins. ok is
// false when no signature of those kinds is active. It is the narrow
// read a policy controller makes every decision epoch, without copying
// and sorting the whole picture.
func (e *Engine) Strongest(kinds ...string) (kind string, count int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evalNowLocked()
	for _, s := range e.active {
		if !slices.Contains(kinds, s.Kind) {
			continue
		}
		if !ok || s.Count > count || (s.Count == count && s.Kind < kind) {
			kind, count, ok = s.Kind, s.Count, true
		}
	}
	return kind, count, ok
}

// RegionRate is one region's slow-window error rate (RegionStat.RateSlow).
type RegionRate struct {
	Region   int
	RateSlow float64
}

// HotRegions evaluates the engine exactly as Snapshot does and appends
// to dst, in region order, every region whose slow-window error rate is
// at least minRate — the narrow read behind a controller's per-epoch
// codec migration.
func (e *Engine) HotRegions(dst []RegionRate, minRate float64) []RegionRate {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.evalNowLocked()
	start := len(dst)
	for region, rs := range e.regions {
		if rate := rs.errWin.rate(now, e.cfg.WindowBuckets); rate >= minRate {
			dst = append(dst, RegionRate{Region: region, RateSlow: rate})
		}
	}
	slices.SortFunc(dst[start:], func(a, b RegionRate) int { return cmp.Compare(a.Region, b.Region) })
	return dst
}

// overallLocked is the worst state across the SLO trackers.
func (e *Engine) overallLocked() State {
	worst := StateOK
	for _, t := range e.slos {
		if t.state > worst {
			worst = t.state
		}
	}
	return worst
}

// State returns the engine's overall SLO state.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.overallLocked()
}

// vitalDetail is the compact /healthz payload.
type vitalDetail struct {
	Events     int64                `json:"events_observed"`
	SubDropped int64                `json:"subscription_dropped"`
	Regions    int                  `json:"regions"`
	Classes    map[string]ClassStat `json:"classes"`
	SLOs       []SLOStat            `json:"slos"`
	Signatures []Signature          `json:"signatures,omitempty"`
	LastAlert  *Alert               `json:"last_alert,omitempty"`
}

// VitalSigns implements telemetry.Vitals: the engine's overall status
// and a compact vital-signs payload for /healthz.
func (e *Engine) VitalSigns() (string, any) {
	snap := e.Snapshot()
	d := vitalDetail{
		Events:     snap.Events,
		SubDropped: snap.SubDropped,
		Regions:    snap.RegionsTotal,
		Classes:    snap.Classes,
		SLOs:       snap.SLOs,
		Signatures: snap.Signatures,
	}
	if n := len(snap.Alerts); n > 0 {
		d.LastAlert = &snap.Alerts[n-1]
	}
	return snap.Status.String(), d
}

// RegionsPayload implements telemetry.Vitals: the full snapshot,
// heatmap included, for /regions.
func (e *Engine) RegionsPayload() any { return e.Snapshot() }

// Sample emits the engine's scalar vitals in the shape
// telemetry.Recorder.Source consumes, so health state trends alongside
// counters and latency percentiles on the /timeseries ring: overall
// status (0=ok 1=warn 2=page), event totals, region pressure, and the
// fast-window rate per error class.
func (e *Engine) Sample(put func(field string, v float64)) {
	snap := e.Snapshot()
	put("status", float64(snap.Status))
	put("events", float64(snap.Events))
	put("regions", float64(snap.RegionsTotal))
	put("alerts", float64(len(snap.Alerts)))
	for class, st := range snap.Classes {
		put("rate."+class, st.RateFast)
	}
}
