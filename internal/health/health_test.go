package health

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"polyecc/internal/telemetry"
)

// base keeps test epochs well away from zero so bucket arithmetic is
// exercised with realistic timestamps.
const base = int64(1_700_000_000) * int64(time.Second)

func at(sec float64) int64 { return base + int64(sec*1e9) }

func corrected(line int, tNs int64) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.KindDecodeAnomaly, Source: "test", Outcome: "corrected",
		Index: line, TimeNs: tNs,
		Detail: &telemetry.DecodeAnomaly{Status: "corrected", Model: "SSC", Iterations: 2},
	}
}

func TestWindowRatesAndEWMA(t *testing.T) {
	w := newWindow(int64(time.Second), 10, 0.5)
	// 4 events in second 0, 2 in second 1, none in 2..4.
	for i := 0; i < 4; i++ {
		w.add(at(0.1), 1)
	}
	w.add(at(1.2), 1)
	w.add(at(1.8), 1)
	if got := w.rate(at(1.9), 2); got != 3 { // (4+2)/2s
		t.Fatalf("2-bucket rate = %v, want 3", got)
	}
	w.add(at(4.0), 1)
	// Fold sequence: advance(1) folds bucket0 → 0.5*4 = 2; advance(4)
	// folds bucket1 (2 events) → 2, then two empty buckets → 1 → 0.5.
	if w.ewma != 0.5 {
		t.Fatalf("ewma = %v, want 0.5", w.ewma)
	}
	// Old events beyond the window are totaled but not bucketed.
	w.add(at(-30), 1)
	if w.total != 8 {
		t.Fatalf("total = %d, want 8", w.total)
	}
	if got := w.rate(at(4.0), 10); got != 0.7 { // (4+2+0+0+1)/10s
		t.Fatalf("10-bucket rate = %v, want 0.7", got)
	}
}

func TestEngineClassifiesAndBuildsHeatmap(t *testing.T) {
	e := New(Config{})
	e.Observe(corrected(10, at(0)))
	e.Observe(telemetry.Event{Kind: telemetry.KindDecodeAnomaly, Source: "test",
		Outcome: "uncorrectable", Index: 70, TimeNs: at(0.1)})
	e.Observe(telemetry.Event{Kind: telemetry.KindDecodeAnomaly, Source: "test",
		Outcome: "miscorrected", Index: 130, TimeNs: at(0.2),
		Detail: &telemetry.DecodeAnomaly{Status: "corrected", SDC: true}})
	e.Observe(telemetry.Event{Kind: telemetry.KindScrubFinding, Source: "scrub",
		Outcome: "corrected", Index: 10, TimeNs: at(0.3)})
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, Name: "shard-0", TimeNs: at(0.4)})

	s := e.Snapshot()
	if s.Events != 5 {
		t.Fatalf("events observed = %d, want 5", s.Events)
	}
	for class, want := range map[string]int64{"corrected": 1, "due": 1, "sdc": 1, "scrub": 1} {
		if got := s.Classes[class].Total; got != want {
			t.Fatalf("class %s total = %d, want %d", class, got, want)
		}
	}
	// Regions: line 10 → region 0, line 70 → region 1, line 130 → region 2.
	if len(s.Regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(s.Regions))
	}
	r0 := s.Regions[0]
	if r0.Region != 0 || r0.Corrected != 1 || r0.Scrub != 1 {
		t.Fatalf("region 0 = %+v, want corrected 1 scrub 1", r0)
	}
	if s.Regions[1].DUE != 1 || s.Regions[2].SDC != 1 {
		t.Fatalf("region 1/2 = %+v / %+v", s.Regions[1], s.Regions[2])
	}
	if s.Models["SSC"] != 1 {
		t.Fatalf("models = %v, want SSC:1", s.Models)
	}
}

// Trial-outcome events from a source that already journals decode
// anomalies describe the same decodes; counting both would double every
// rate.
func TestEngineDedupsTrialOutcomes(t *testing.T) {
	e := New(Config{})
	e.Observe(corrected(5, at(0)))
	e.Observe(telemetry.Event{Kind: telemetry.KindTrialOutcome, Source: "test",
		Outcome: "corrected", Index: 5, TimeNs: at(0.01)})
	if got := e.Snapshot().Classes["corrected"].Total; got != 1 {
		t.Fatalf("corrected total = %d, want 1 (trial outcome deduped)", got)
	}
	// A campaign that does NOT journal anomalies still counts.
	e.Observe(telemetry.Event{Kind: telemetry.KindTrialOutcome, Source: "fig4",
		Outcome: "sdc", Index: 9, TimeNs: at(0.02)})
	if got := e.Snapshot().Classes["sdc"].Total; got != 1 {
		t.Fatalf("sdc total = %d, want 1 (plain trial outcome counted)", got)
	}
}

func TestSLOBurnStateMachine(t *testing.T) {
	e := New(Config{
		BudgetCorrected: 1, // 1/s budget → 10/s sustained is a 10x page burn
		WindowBuckets:   10,
	})
	// 20 corrections/sec for 12 seconds of event time.
	n := 0
	for sec := 0; sec < 12; sec++ {
		for i := 0; i < 20; i++ {
			e.Observe(corrected(n%8, at(float64(sec)+float64(i)/20)))
			n++
		}
	}
	s := e.Snapshot()
	if s.Status != StatePage {
		t.Fatalf("status = %s, want page; slos %+v", s.Status, s.SLOs)
	}
	var pageAlert bool
	for _, a := range s.Alerts {
		if a.Kind == "slo-burn" && a.Severity == "page" {
			pageAlert = true
		}
	}
	if !pageAlert {
		t.Fatalf("no page alert in timeline: %+v", s.Alerts)
	}

	// Silence. The storm must first hold (hysteresis), then resolve after
	// HoldDown calm evaluations once the windows drain.
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(13)})
	if got := e.State(); got != StatePage {
		t.Fatalf("state right after storm = %s, want page held", got)
	}
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(60)})
	if got := e.State(); got != StateOK {
		t.Fatalf("state after drain = %s, want ok", got)
	}
}

func TestRepeatOffenderSignature(t *testing.T) {
	e := New(Config{RepeatMin: 4})
	for i := 0; i < 5; i++ {
		e.Observe(corrected(42, at(float64(i))))
	}
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(6)})
	s := e.Snapshot()
	found := false
	for _, sig := range s.Signatures {
		if sig.Kind == "repeat-offender" && sig.Line == 42 && sig.Count >= 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no repeat-offender signature for line 42: %+v", s.Signatures)
	}
}

func TestRowhammerSignatureNeedsClustering(t *testing.T) {
	cfg := Config{RowhammerMin: 8, RowLines: 8}
	// Clustered: corrections split between rows 4 and 6 (victims of
	// aggressor row 5), none in row 5 itself.
	e := New(cfg)
	for i := 0; i < 12; i++ {
		row := 4 + 2*(i%2) // rows 4 and 6
		e.Observe(corrected(row*8+i%8, at(float64(i)*0.1)))
	}
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(3)})
	s := e.Snapshot()
	var storm *Signature
	for i := range s.Signatures {
		if s.Signatures[i].Kind == "rowhammer-storm" {
			storm = &s.Signatures[i]
		}
	}
	if storm == nil || storm.Row != 5 {
		t.Fatalf("want rowhammer-storm at aggressor row 5, got %+v", s.Signatures)
	}

	// Uniform noise of the same volume must NOT classify as a storm.
	e2 := New(cfg)
	for i := 0; i < 12; i++ {
		e2.Observe(corrected(i*64, at(float64(i)*0.1))) // spread across rows
	}
	e2.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(3)})
	for _, sig := range e2.Snapshot().Signatures {
		if sig.Kind == "rowhammer-storm" {
			t.Fatalf("uniform noise misclassified as rowhammer: %+v", sig)
		}
	}
}

func TestScrubRecurrenceSignature(t *testing.T) {
	e := New(Config{ScrubRepeatMin: 3})
	for i := 0; i < 4; i++ {
		e.Observe(telemetry.Event{Kind: telemetry.KindScrubFinding, Source: "scrub",
			Outcome: "corrected", Index: 64*3 + i, TimeNs: at(float64(i))})
	}
	e.Observe(telemetry.Event{Kind: telemetry.KindSpan, TimeNs: at(5)})
	found := false
	for _, sig := range e.Snapshot().Signatures {
		if sig.Kind == "scrub-recurrence" && sig.Region == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scrub-recurrence for region 3: %+v", e.Snapshot().Signatures)
	}
}

// The engine over a live journal subscription: Start pumps events and
// stop drains the tail, so every recorded event is observed.
func TestEngineStartPumpsSubscription(t *testing.T) {
	j := telemetry.NewJournal(1024)
	e := New(Config{})
	stop := e.Start(j)
	const n = 200
	for i := 0; i < n; i++ {
		j.Record(telemetry.Event{Kind: telemetry.KindDecodeAnomaly, Source: "pump",
			Outcome: "corrected", Index: i % 64, TimeNs: at(float64(i) / 100)})
	}
	stop()
	s := e.Snapshot()
	if s.Events != n {
		t.Fatalf("events observed = %d, want %d", s.Events, n)
	}
	if got := s.Classes["corrected"].Total; got != n {
		t.Fatalf("corrected = %d, want %d", got, n)
	}
	// Disabled journal: Start must be a safe no-op.
	var nilJ *telemetry.Journal
	stop2 := New(Config{}).Start(nilJ)
	stop2()
}

func TestVitalSignsStatusAndPayload(t *testing.T) {
	e := New(Config{})
	e.Observe(corrected(1, at(0)))
	status, detail := e.VitalSigns()
	if status != "ok" {
		t.Fatalf("status = %q, want ok", status)
	}
	d, ok := detail.(vitalDetail)
	if !ok || d.Events != 1 {
		t.Fatalf("detail = %#v, want vitalDetail with 1 event", detail)
	}
	if e.RegionsPayload().(Snapshot).RegionsTotal != 1 {
		t.Fatal("RegionsPayload missing the region")
	}
}

func TestRegionOverflowBounded(t *testing.T) {
	e := New(Config{MaxRegions: 4, RegionLines: 1})
	for i := 0; i < 10; i++ {
		e.Observe(corrected(i, at(float64(i)*0.01)))
	}
	s := e.Snapshot()
	if s.RegionsTotal != 4 {
		t.Fatalf("regions tracked = %d, want capped at 4", s.RegionsTotal)
	}
	if s.RegionsOver != 6 {
		t.Fatalf("regions overflowed = %d, want 6", s.RegionsOver)
	}
}

// The MaxRegions cap is never silent: dropping a region from the
// heatmap journals a typed region-evict event carrying the victim's
// final statistics, and the newly observed region takes its slot.
func TestMaxRegionsEvictionJournaled(t *testing.T) {
	j := telemetry.NewJournal(64)
	e := New(Config{MaxRegions: 2, RegionLines: 1, Journal: j})
	e.Observe(corrected(0, at(0)))
	e.Observe(corrected(0, at(0.1)))
	e.Observe(corrected(1, at(1)))
	e.Observe(corrected(2, at(2))) // at the cap: region 0 is the LRU victim

	var evict *telemetry.Event
	for _, ev := range j.Snapshot() {
		if ev.Kind == telemetry.KindRegionEvict {
			ev := ev
			if evict != nil {
				t.Fatalf("more than one eviction journaled")
			}
			evict = &ev
		}
	}
	if evict == nil {
		t.Fatal("no region-evict event at the cap")
	}
	if evict.Index != 0 || evict.Source != "health" || evict.Outcome != "evicted" {
		t.Fatalf("evict envelope = %+v", evict)
	}
	rs, ok := evict.Detail.(RegionStat)
	if !ok || rs.Region != 0 || rs.Corrected != 2 || rs.LastNs != at(0.1) {
		t.Fatalf("evict detail = %#v", evict.Detail)
	}

	s := e.Snapshot()
	if s.RegionsTotal != 2 || s.RegionsOver != 1 {
		t.Fatalf("tracked=%d over=%d, want 2/1", s.RegionsTotal, s.RegionsOver)
	}
	regions := map[int]bool{}
	for _, r := range s.Regions {
		regions[r.Region] = true
	}
	if !regions[1] || !regions[2] || regions[0] {
		t.Fatalf("surviving regions = %v, want {1,2}", regions)
	}
	// The engine observing its own eviction event back (as a subscriber
	// would) must not reclassify it as an error.
	e.Observe(*evict)
	if got := e.Snapshot().Classes["corrected"].Total; got != 4 {
		t.Fatalf("corrected total after self-observe = %d, want 4", got)
	}
}

// oldThreat is the strongest-threat walk a controller used to make over
// a full Snapshot: the first signature of the two threat kinds with the
// highest count in the Snapshot's sorted order.
func oldThreat(snap Snapshot) (string, int, bool) {
	var threat *Signature
	for i := range snap.Signatures {
		s := &snap.Signatures[i]
		if s.Kind == "rowhammer-storm" || s.Kind == "repeat-offender" {
			if threat == nil || s.Count > threat.Count {
				threat = s
			}
		}
	}
	if threat == nil {
		return "", 0, false
	}
	return threat.Kind, threat.Count, true
}

// The narrow reads must answer exactly what the Snapshot walks they
// replace did and evaluate exactly as often: a twin engine read through
// Snapshot at the same points agrees read for read and ends in the same
// state.
func TestNarrowReadsMatchSnapshot(t *testing.T) {
	cfg := Config{RowhammerMin: 8, RepeatMin: 4, RegionLines: 16}
	narrow, wide := New(cfg), New(cfg)
	r := rand.New(rand.NewSource(3))
	const minRate = 0.05
	var hot []RegionRate
	tNs := at(0)
	seen := map[string]bool{}
	for i := 0; i < 4000; i++ {
		tNs += int64(r.Intn(300)) * int64(time.Millisecond)
		var line int
		switch k := r.Intn(10); {
		case k < 3: // a storm around aggressor row 5
			line = (4+2*r.Intn(2))*8 + r.Intn(8)
		case k < 5: // a few repeat offenders
			line = 500 + 100*r.Intn(3)
		default:
			line = r.Intn(4096)
		}
		ev := corrected(line, tNs)
		if r.Intn(8) == 0 {
			ev.Outcome = "uncorrectable"
		}
		narrow.Observe(ev)
		wide.Observe(ev)
		// The two reads run at independent points, as in the controller
		// (threats on event epochs, migration on any clock advance).
		if i%5 == 0 {
			kind, count, ok := narrow.Strongest("rowhammer-storm", "repeat-offender")
			wk, wc, wok := oldThreat(wide.Snapshot())
			if kind != wk || count != wc || ok != wok {
				t.Fatalf("event %d: Strongest = (%q, %d, %v), Snapshot walk = (%q, %d, %v)", i, kind, count, ok, wk, wc, wok)
			}
			seen[kind] = true
		}
		if i%3 != 0 {
			continue
		}
		hot = narrow.HotRegions(hot[:0], minRate)
		var want []RegionRate
		for _, rs := range wide.Snapshot().Regions {
			if rs.RateSlow >= minRate {
				want = append(want, RegionRate{Region: rs.Region, RateSlow: rs.RateSlow})
			}
		}
		if !slices.Equal(hot, want) {
			t.Fatalf("event %d: HotRegions = %v, Snapshot walk = %v", i, hot, want)
		}
	}
	if !seen["rowhammer-storm"] || !seen["repeat-offender"] || !seen[""] {
		t.Fatalf("stream never exercised every answer: %v", seen)
	}
	a, b := narrow.Snapshot(), wide.Snapshot()
	for _, s := range []*Snapshot{&a, &b} {
		slices.SortFunc(s.Signatures, func(x, y Signature) int {
			return cmp.Or(strings.Compare(x.Kind, y.Kind), cmp.Compare(x.Count, y.Count),
				cmp.Compare(x.Row, y.Row), cmp.Compare(x.Line, y.Line), cmp.Compare(x.Region, y.Region))
		})
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("engines diverged:\n narrow %+v\n wide   %+v", a, b)
	}
}

// On equal counts the threat kind that sorts first wins, as in the
// sorted Snapshot walk.
func TestStrongestTieGoesToFirstKind(t *testing.T) {
	e := New(Config{RowhammerMin: 8, RepeatMin: 4})
	// A storm of 8 victim corrections around aggressor row 5...
	for i := 0; i < 8; i++ {
		e.Observe(corrected((4+2*(i%2))*8+i/2, at(float64(i)*0.1)))
	}
	// ...and a repeat offender with the same count.
	for i := 0; i < 8; i++ {
		e.Observe(corrected(800, at(1+float64(i)*0.1)))
	}
	if kind, count, ok := e.Strongest("rowhammer-storm", "repeat-offender"); !ok || kind != "repeat-offender" || count != 8 {
		t.Fatalf("tie: got (%q, %d, %v), want repeat-offender 8", kind, count, ok)
	}
	wk, wc, _ := oldThreat(e.Snapshot())
	if wk != "repeat-offender" || wc != 8 {
		t.Fatalf("Snapshot walk on the tie: (%q, %d)", wk, wc)
	}
	e.Observe(corrected(4*8+7, at(2.5))) // the storm pulls ahead
	if kind, count, _ := e.Strongest("rowhammer-storm", "repeat-offender"); kind != "rowhammer-storm" || count != 9 {
		t.Fatalf("storm ahead: got (%q, %d)", kind, count)
	}
	if kind, _, ok := e.Strongest("scrub-recurrence"); ok {
		t.Fatalf("no scrub finding, got %q", kind)
	}
}
