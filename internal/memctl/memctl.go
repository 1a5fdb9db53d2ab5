// Package memctl is the adaptive protection-policy engine of the repo —
// the self-healing memory controller ROADMAP item 5 describes. It
// closes the loop the health engine (internal/health) only observes:
// journal events stream in, and explicit journaled actions come out —
// fault-model trial reordering for the decoder, scrub-cadence
// escalation for the patrol, line quarantine with bounded retries and
// release hysteresis, page retirement, and per-region codec migration
// up a configured internal/linecode ladder.
//
// Every decision is an Action recorded to the flight-recorder journal
// with its triggering evidence, and the policy state machine is
// deterministic under journal replay: all decisions are pure functions
// of the event stream and event time. Recorded policy-action events are
// never inputs — on replay they only advance the controller's clock
// (Tick), anchoring decision epochs — so Replay over a recorded journal
// reproduces the identical action log (see DESIGN.md §13 for the full
// contract; it requires Health.WallClock=false and a journal cap that
// covered the run).
package memctl

import (
	"cmp"
	"expvar"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"polyecc/internal/health"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

// Config tunes the controller. The zero value gets the defaults below;
// the embedded health.Config seeds the controller's own engine, and its
// BucketNs is also the controller's decision epoch.
type Config struct {
	// Health configures the embedded health engine the controller
	// consumes snapshots from. Leave WallClock off for deterministic
	// replay; set it on live servers.
	Health health.Config
	// Journal receives one policy-action event per decision (and is
	// passed through to the embedded engine for region-evict events).
	// A nil journal keeps the in-memory action log only.
	Journal *telemetry.Journal

	// QuarantineAfter is the weighted hit count that quarantines a line
	// (default 3); DUEWeight is the hit weight of a DUE or SDC (default
	// 3, so a hard failure fences immediately). Hits decay to zero after
	// a ReleaseCalm-length quiet gap.
	QuarantineAfter int
	DUEWeight       int
	// ReleaseCalm is the hysteresis: buckets of silence on a quarantined
	// line before it is released back to service (default 8).
	ReleaseCalm int
	// MaxRequarantine bounds the retry loop: a line quarantined this
	// many times does not get another release cycle — its page is
	// retired instead (default 2, so the worst flapper costs
	// quarantine, release, quarantine, release, retire).
	MaxRequarantine int
	// PageLines is the retirement granularity in lines (default:
	// Health.RegionLines).
	PageLines int

	// ScrubBase is the patrol pause at level 0 (default 1m); each
	// escalation halves it down to ScrubMin (default 1s), bounded by
	// MaxScrubLevel steps (default 6). ScrubCalm is the signature-free
	// buckets required per relax step (default 5).
	ScrubBase     time.Duration
	ScrubMin      time.Duration
	MaxScrubLevel int
	ScrubCalm     int

	// ReorderMin is the observation floor: the dominant fault model must
	// have at least this many corrected decodes before the trial order
	// is reordered around it (default 16).
	ReorderMin int

	// Codecs is the migration ladder: linecode registry names ordered
	// weakest to strongest. A region whose slow-window error rate
	// reaches MigrateRate (default 2 err/s) is migrated one step up per
	// decision epoch; the host performs the re-encode. Empty disables
	// migration.
	Codecs      []string
	MigrateRate float64

	// MaxActions bounds the in-memory action log (default 1024; the
	// journal keeps its own bounded history).
	MaxActions int
}

func (c Config) withDefaults() Config {
	defi := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	defi(&c.QuarantineAfter, 3)
	defi(&c.DUEWeight, 3)
	defi(&c.ReleaseCalm, 8)
	defi(&c.MaxRequarantine, 2)
	if c.PageLines <= 0 {
		c.PageLines = c.Health.RegionLines
		defi(&c.PageLines, 64)
	}
	if c.ScrubBase <= 0 {
		c.ScrubBase = time.Minute
	}
	if c.ScrubMin <= 0 {
		c.ScrubMin = time.Second
	}
	defi(&c.MaxScrubLevel, 6)
	defi(&c.ScrubCalm, 5)
	defi(&c.ReorderMin, 16)
	if c.MigrateRate <= 0 {
		c.MigrateRate = 2
	}
	defi(&c.MaxActions, 1024)
	return c
}

// lineState is the per-line quarantine state machine.
type lineState struct {
	hits        int   // weighted hits since the last quiet gap
	strikes     int   // completed quarantine entries
	lastErrNs   int64 // newest error on this line
	sinceNs     int64 // quarantine entry time (0 = in service)
	quarantined bool
}

// Metrics is the controller's own telemetry, publishable into expvar
// (and thence /metrics as memctl_* Prometheus series).
type Metrics struct {
	Events      telemetry.Counter        // journal events observed
	Actions     telemetry.LabeledCounter // decisions by action kind
	Quarantined expvar.Int               // gauge: lines currently fenced
	Retired     expvar.Int               // gauge: pages retired
	ScrubLevel  expvar.Int               // gauge: current escalation level
}

// Controller is the policy engine. Feed it with Observe (synchronous,
// e.g. a closed-loop soak or journal replay) or Start (a goroutine
// pumping a journal subscription). All methods are safe for concurrent
// use. The controller owns an embedded health engine — hosts attach the
// controller itself as telemetry.Vitals, and must not Start a separate
// engine on the same journal. The controller reads the engine while
// holding its own lock: the lock order is always controller then engine,
// and the engine never calls back into the controller.
type Controller struct {
	cfg      Config
	bucketNs int64
	engine   *health.Engine

	mu              sync.Mutex
	nowNs           int64
	lastEventEpoch  int64 // decision epochs crossed by observed events
	lastPureEpoch   int64 // decision epochs crossed by any time advance
	lines           map[int]*lineState
	retired         map[int]bool // pages
	regionCodec     map[int]int  // region -> ladder index (absent = 0)
	modelCounts     map[string]int64
	modelOrder      []string
	rank            []string            // desiredOrderLocked's reused ranking
	hot             []health.RegionRate // pureEvalLocked's reused hot-region read
	scrubLevel      int
	lastThreatEpoch int64 // newest event-epoch with an active threat signature
	lastRelaxEpoch  int64
	quarantinedN    int
	actions         []Action
	actionsTotal    int64
	byKind          map[string]int64

	metrics Metrics
}

// New builds a controller (and its embedded health engine) from cfg.
// Every Codecs entry must name a registered linecode scheme.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Health.Journal == nil {
		cfg.Health.Journal = cfg.Journal
	}
	for _, name := range cfg.Codecs {
		if linecode.CheckName(name) != nil {
			return nil, fmt.Errorf("memctl: codec ladder entry %q is not a registered linecode scheme", name)
		}
	}
	bucketNs := cfg.Health.BucketNs
	if bucketNs <= 0 {
		bucketNs = int64(time.Second)
	}
	return &Controller{
		cfg:         cfg,
		bucketNs:    bucketNs,
		engine:      health.New(cfg.Health),
		lines:       map[int]*lineState{},
		retired:     map[int]bool{},
		regionCodec: map[int]int{},
		modelCounts: map[string]int64{},
		byKind:      map[string]int64{},
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Health returns the embedded health engine (e.g. for final snapshots).
func (c *Controller) Health() *health.Engine { return c.engine }

// Publish registers the controller's collectors under prefix
// (idempotently) and the embedded engine's under prefix+".health".
func (c *Controller) Publish(prefix string) {
	telemetry.Publish(prefix+".events", &c.metrics.Events)
	telemetry.Publish(prefix+".actions", &c.metrics.Actions)
	telemetry.Publish(prefix+".quarantined_lines", &c.metrics.Quarantined)
	telemetry.Publish(prefix+".retired_pages", &c.metrics.Retired)
	telemetry.Publish(prefix+".scrub_level", &c.metrics.ScrubLevel)
	c.engine.Publish(prefix + ".health")
}

// VitalSigns implements telemetry.Vitals via the embedded engine.
func (c *Controller) VitalSigns() (string, any) { return c.engine.VitalSigns() }

// RegionsPayload implements telemetry.Vitals via the embedded engine.
func (c *Controller) RegionsPayload() any { return c.engine.RegionsPayload() }

// Start subscribes the controller to j and pumps events in a background
// goroutine until the returned stop function is called (final drain
// included). A nil or disabled journal yields a no-op stop.
func (c *Controller) Start(j *telemetry.Journal) (stop func()) {
	capacity := c.cfg.Health.SubscriptionCap
	if capacity <= 0 {
		capacity = 8192
	}
	return j.Subscribe(capacity).Run(c.ObserveAll)
}

// ObserveAll feeds a batch of events through Observe.
func (c *Controller) ObserveAll(events []telemetry.Event) {
	for i := range events {
		c.Observe(events[i])
	}
}

// Observe feeds one journal event through the policy machine: the
// embedded engine classifies it, the per-line quarantine state advances,
// and decision epochs crossed by the event's timestamp run the policy
// evaluation. The controller's own recorded actions (and the engine's
// region-evict events) are deliberately not inputs — they only advance
// the clock, which is exactly what makes a replayed journal reproduce
// the same decisions at the same epochs.
func (c *Controller) Observe(ev telemetry.Event) {
	if ev.Kind == telemetry.KindPolicyAction || ev.Kind == telemetry.KindRegionEvict {
		c.Tick(ev.TimeNs)
		return
	}
	class, line, ok := c.engine.ObserveClassify(ev)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.Events.Add(1)
	if ev.TimeNs > c.nowNs {
		c.nowNs = ev.TimeNs
	}
	if ok {
		c.noteLineLocked(class, line, ev.TimeNs)
		if class == health.ClassCorrected || class == health.ClassScrub {
			if da, has := ev.AnomalyDetail(); has && da.Model != "" {
				c.modelCounts[da.Model]++
			}
		}
	}
	if epoch := c.nowNs / c.bucketNs; epoch > c.lastEventEpoch {
		c.lastEventEpoch = epoch
		c.eventEvalLocked(epoch)
	}
	c.pureBoundaryLocked()
}

// Tick advances the controller's clock without an event — the heartbeat
// a synchronous driver calls on quiet trials so releases and relaxes
// happen on time. Tick-driven evaluations are pure: they mutate state
// only when they emit an action, and every action lands in the journal,
// so a replay (which can only tick at recorded timestamps) still visits
// every epoch where the live run changed state.
func (c *Controller) Tick(nowNs int64) {
	c.engine.Advance(nowNs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if nowNs > c.nowNs {
		c.nowNs = nowNs
	}
	c.pureBoundaryLocked()
}

// noteLineLocked advances one line's quarantine state machine on an
// error observation.
func (c *Controller) noteLineLocked(class health.Class, line int, tNs int64) {
	if c.retired[line/c.cfg.PageLines] {
		return
	}
	ls := c.lines[line]
	if ls == nil {
		ls = &lineState{}
		c.lines[line] = ls
	}
	decayNs := int64(c.cfg.ReleaseCalm) * c.bucketNs
	if ls.lastErrNs != 0 && tNs-ls.lastErrNs > decayNs {
		ls.hits = 0
	}
	weight := 1
	if class == health.ClassDUE || class == health.ClassSDC {
		weight = c.cfg.DUEWeight
	}
	ls.hits += weight
	if tNs > ls.lastErrNs {
		ls.lastErrNs = tNs
	}
	if ls.quarantined || ls.hits < c.cfg.QuarantineAfter {
		return
	}
	if ls.strikes >= c.cfg.MaxRequarantine {
		page := line / c.cfg.PageLines
		c.retired[page] = true
		c.metrics.Retired.Set(int64(len(c.retired)))
		c.emitLocked(Action{
			TimeNs: tNs, Kind: ActionRetire, Line: line, Page: page,
			Evidence: fmt.Sprintf("line %d re-offended after %d quarantine cycles (%d weighted hits, class %s)",
				line, ls.strikes, ls.hits, class),
		})
		return
	}
	ls.strikes++
	ls.quarantined = true
	ls.sinceNs = tNs
	ls.hits = 0
	c.quarantinedN++
	c.metrics.Quarantined.Set(int64(c.quarantinedN))
	c.emitLocked(Action{
		TimeNs: tNs, Kind: ActionQuarantine, Line: line,
		To: fmt.Sprintf("strike %d/%d", ls.strikes, c.cfg.MaxRequarantine+1),
		Evidence: fmt.Sprintf("line %d crossed %d weighted hits (class %s) — fenced pending %d calm buckets",
			line, c.cfg.QuarantineAfter, class, c.cfg.ReleaseCalm),
	})
}

// eventEvalLocked runs once per decision epoch crossed by an observed
// event (never by a bare Tick): everything here may read and update
// accumulated evidence — event cadence is identical between a live run
// and its replay, so this state stays bit-identical too.
func (c *Controller) eventEvalLocked(epoch int64) {
	if kind, count, ok := c.engine.Strongest("rowhammer-storm", "repeat-offender"); ok {
		c.lastThreatEpoch = epoch
		if c.scrubLevel < c.cfg.MaxScrubLevel {
			from := c.scrubIntervalLocked()
			c.scrubLevel++
			c.metrics.ScrubLevel.Set(int64(c.scrubLevel))
			c.emitLocked(Action{
				TimeNs: c.nowNs, Kind: ActionScrubEscalate,
				From: from.String(), To: c.scrubIntervalLocked().String(),
				Evidence: fmt.Sprintf("%s signature active (count %d) — scrub level %d",
					kind, count, c.scrubLevel),
			})
		}
	}

	if want := c.desiredOrderLocked(); want != nil && !slices.Equal(want, c.modelOrder) {
		from := strings.Join(c.modelOrder, ",")
		if from == "" {
			from = "default"
		}
		c.modelOrder = slices.Clone(want)
		c.emitLocked(Action{
			TimeNs: c.nowNs, Kind: ActionReorder,
			From: from, To: strings.Join(want, ","),
			Evidence: "observed correction mix " + c.mixEvidenceLocked(),
		})
	}
}

// pureBoundaryLocked runs the pure policy evaluation on every decision
// epoch crossed by any clock advance (event or Tick).
func (c *Controller) pureBoundaryLocked() {
	if epoch := c.nowNs / c.bucketNs; epoch > c.lastPureEpoch {
		c.lastPureEpoch = epoch
		c.pureEvalLocked(epoch)
	}
}

// pureEvalLocked makes the decisions that are pure functions of event
// time and action-anchored state: quarantine releases, scrub relax, and
// codec migration. It must not update evidence counters — a replay only
// revisits the epochs where an action was recorded, and purity is what
// makes the skipped epochs provably no-ops.
func (c *Controller) pureEvalLocked(epoch int64) {
	// Releases, in line order for a deterministic action sequence.
	calmNs := int64(c.cfg.ReleaseCalm) * c.bucketNs
	var due []int
	for line, ls := range c.lines {
		if ls.quarantined && c.nowNs-ls.lastErrNs >= calmNs {
			due = append(due, line)
		}
	}
	sort.Ints(due)
	for _, line := range due {
		ls := c.lines[line]
		ls.quarantined = false
		ls.sinceNs = 0
		ls.hits = 0
		c.quarantinedN--
		c.metrics.Quarantined.Set(int64(c.quarantinedN))
		c.emitLocked(Action{
			TimeNs: c.nowNs, Kind: ActionRelease, Line: line,
			From: fmt.Sprintf("strike %d/%d", ls.strikes, c.cfg.MaxRequarantine+1),
			Evidence: fmt.Sprintf("line %d calm for %d buckets — back in service (retire after %d more strikes)",
				line, c.cfg.ReleaseCalm, c.cfg.MaxRequarantine-ls.strikes+1),
		})
	}

	// Scrub relax: one step per ScrubCalm threat-free buckets.
	if c.scrubLevel > 0 {
		base := c.lastThreatEpoch
		if c.lastRelaxEpoch > base {
			base = c.lastRelaxEpoch
		}
		if epoch-base >= int64(c.cfg.ScrubCalm) {
			from := c.scrubIntervalLocked()
			c.scrubLevel--
			c.lastRelaxEpoch = epoch
			c.metrics.ScrubLevel.Set(int64(c.scrubLevel))
			c.emitLocked(Action{
				TimeNs: c.nowNs, Kind: ActionScrubRelax,
				From: from.String(), To: c.scrubIntervalLocked().String(),
				Evidence: fmt.Sprintf("%d signature-free buckets — scrub level %d", c.cfg.ScrubCalm, c.scrubLevel),
			})
		}
	}

	// Codec migration: hot regions climb the ladder one step per epoch.
	if len(c.cfg.Codecs) > 1 {
		c.hot = c.engine.HotRegions(c.hot[:0], c.cfg.MigrateRate)
		for _, r := range c.hot {
			idx := c.regionCodec[r.Region]
			if idx+1 < len(c.cfg.Codecs) {
				c.regionCodec[r.Region] = idx + 1
				c.emitLocked(Action{
					TimeNs: c.nowNs, Kind: ActionMigrate, Region: r.Region,
					From: c.cfg.Codecs[idx], To: c.cfg.Codecs[idx+1],
					Evidence: fmt.Sprintf("region %d error rate %.2f/s >= %.2f/s over the slow window",
						r.Region, r.RateSlow, c.cfg.MigrateRate),
				})
			}
		}
	}
}

// desiredOrderLocked ranks the observed fault models by corrected-decode
// count (ties broken by the canonical DefaultModels order), or nil while
// the leader is below the ReorderMin evidence floor. The ranking is
// built in c.rank, reused every epoch: a caller that keeps it copies it.
func (c *Controller) desiredOrderLocked() []string {
	if len(c.modelCounts) == 0 {
		return nil
	}
	names := c.rank[:0]
	for name := range c.modelCounts {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int {
		if na, nb := c.modelCounts[a], c.modelCounts[b]; na != nb {
			return cmp.Compare(nb, na)
		}
		if ca, cb := canonRank(a), canonRank(b); ca != cb {
			return ca - cb
		}
		return strings.Compare(a, b)
	})
	c.rank = names
	if c.modelCounts[names[0]] < int64(c.cfg.ReorderMin) {
		return nil
	}
	return names
}

// canonRank is a model label's position in poly.DefaultModels (labels
// poly does not know rank last).
func canonRank(name string) int {
	for i, m := range poly.DefaultModels {
		if m.String() == name {
			return i
		}
	}
	return len(poly.DefaultModels)
}

// mixEvidenceLocked renders the correction counts behind the decided
// model order.
func (c *Controller) mixEvidenceLocked() string {
	parts := make([]string, 0, len(c.modelOrder))
	for _, name := range c.modelOrder {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c.modelCounts[name]))
	}
	return strings.Join(parts, " ")
}

func (c *Controller) scrubIntervalLocked() time.Duration {
	d := c.cfg.ScrubBase >> uint(c.scrubLevel)
	if d < c.cfg.ScrubMin {
		d = c.cfg.ScrubMin
	}
	return d
}

// ScrubInterval returns the current adaptive patrol pause — the value a
// scrub.Policy.Interval hook should return.
func (c *Controller) ScrubInterval() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scrubIntervalLocked()
}

// ScrubLevel returns the current escalation level (0 = base cadence).
func (c *Controller) ScrubLevel() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scrubLevel
}

// ModelNames returns the current decided trial order (nil before the
// first reorder — keep the decoder's default).
func (c *Controller) ModelNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.modelOrder...)
}

// Models maps the decided trial order onto poly fault models, skipping
// labels poly does not know. A decoder applies it with
// poly.Code.WithModels after appending its remaining configured models.
func (c *Controller) Models() []poly.FaultModel {
	names := c.ModelNames()
	out := make([]poly.FaultModel, 0, len(names))
	for _, name := range names {
		if m, ok := poly.ModelFromName(name); ok {
			out = append(out, m)
		}
	}
	return out
}

// Blocked reports whether the host must fence accesses to line: it is
// quarantined or its page is retired.
func (c *Controller) Blocked(line int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired[line/c.cfg.PageLines] {
		return true
	}
	ls := c.lines[line]
	return ls != nil && ls.quarantined
}

// Quarantined reports whether line is currently quarantined.
func (c *Controller) Quarantined(line int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls := c.lines[line]
	return ls != nil && ls.quarantined
}

// RetiredPage reports whether page is retired.
func (c *Controller) RetiredPage(page int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retired[page]
}

// CodecName returns the linecode registry name region should be encoded
// with, or "" when no ladder is configured.
func (c *Controller) CodecName(region int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cfg.Codecs) == 0 {
		return ""
	}
	return c.cfg.Codecs[c.regionCodec[region]]
}

// emitLocked stamps, stores, and journals one action.
func (c *Controller) emitLocked(a Action) {
	c.actionsTotal++
	a.Seq = c.actionsTotal
	c.byKind[a.Kind]++
	c.metrics.Actions.Add(a.Kind, 1)
	c.actions = append(c.actions, a)
	if over := len(c.actions) - c.cfg.MaxActions; over > 0 {
		c.actions = append(c.actions[:0], c.actions[over:]...)
	}
	index := a.Line
	if a.Kind == ActionMigrate {
		index = a.Region
	}
	c.cfg.Journal.Record(telemetry.Event{
		Kind:    telemetry.KindPolicyAction,
		Source:  "memctl",
		Name:    a.Kind,
		Index:   index,
		Outcome: a.To,
		TimeNs:  a.TimeNs,
		Detail:  a,
	})
}

// Actions returns a copy of the retained action log (oldest first; the
// log is bounded by MaxActions, ActionsTotal counts everything).
func (c *Controller) Actions() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Action(nil), c.actions...)
}

// ActionsTotal returns the lifetime decision count.
func (c *Controller) ActionsTotal() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actionsTotal
}

// LineStatus is one quarantined line in a Snapshot.
type LineStatus struct {
	Line    int   `json:"line"`
	Strikes int   `json:"strikes"`
	SinceNs int64 `json:"since_unix_ns"`
}

// RegionCodec is one migrated region in a Snapshot.
type RegionCodec struct {
	Region int    `json:"region"`
	Codec  string `json:"codec"`
}

// Snapshot is the controller's machine-readable state: the /memctl
// payload and what ecctop's actions panel renders.
type Snapshot struct {
	NowNs         int64            `json:"now_unix_ns"`
	Status        string           `json:"health_status"`
	ModelOrder    []string         `json:"model_order,omitempty"`
	ScrubLevel    int              `json:"scrub_level"`
	ScrubInterval string           `json:"scrub_interval"`
	Quarantined   []LineStatus     `json:"quarantined,omitempty"`
	RetiredPages  []int            `json:"retired_pages,omitempty"`
	Migrations    []RegionCodec    `json:"migrations,omitempty"`
	ActionsTotal  int64            `json:"actions_total"`
	ByKind        map[string]int64 `json:"actions_by_kind,omitempty"`
	Recent        []Action         `json:"recent_actions,omitempty"`
}

// snapshotRecent bounds the Recent slice of a Snapshot.
const snapshotRecent = 32

// Snapshot returns the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	status := c.engine.State().String()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		NowNs:         c.nowNs,
		Status:        status,
		ModelOrder:    append([]string(nil), c.modelOrder...),
		ScrubLevel:    c.scrubLevel,
		ScrubInterval: c.scrubIntervalLocked().String(),
		ActionsTotal:  c.actionsTotal,
	}
	for line, ls := range c.lines {
		if ls.quarantined {
			s.Quarantined = append(s.Quarantined, LineStatus{Line: line, Strikes: ls.strikes, SinceNs: ls.sinceNs})
		}
	}
	sort.Slice(s.Quarantined, func(a, b int) bool { return s.Quarantined[a].Line < s.Quarantined[b].Line })
	for page := range c.retired {
		s.RetiredPages = append(s.RetiredPages, page)
	}
	sort.Ints(s.RetiredPages)
	for region, idx := range c.regionCodec {
		if idx > 0 {
			s.Migrations = append(s.Migrations, RegionCodec{Region: region, Codec: c.cfg.Codecs[idx]})
		}
	}
	sort.Slice(s.Migrations, func(a, b int) bool { return s.Migrations[a].Region < s.Migrations[b].Region })
	if len(c.byKind) > 0 {
		s.ByKind = make(map[string]int64, len(c.byKind))
		for k, n := range c.byKind {
			s.ByKind[k] = n
		}
	}
	recent := c.actions
	if len(recent) > snapshotRecent {
		recent = recent[len(recent)-snapshotRecent:]
	}
	s.Recent = append([]Action(nil), recent...)
	return s
}

// Payload is Snapshot as a telemetry.Endpoint payload function.
func (c *Controller) Payload() any { return c.Snapshot() }

// Replay rebuilds a controller from cfg and feeds it every event in
// order — the determinism check: replaying the journal a live run
// recorded must reproduce its action log exactly (pass a nil or fresh
// cfg.Journal; the actions land in Actions() either way). The contract
// holds when cfg matches the live run's, cfg.Health.WallClock is off,
// and the journal's capacity covered the whole run.
func Replay(cfg Config, events []telemetry.Event) (*Controller, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.ObserveAll(events)
	return c, nil
}
