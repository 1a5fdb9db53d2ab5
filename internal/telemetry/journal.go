package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Journal is the flight recorder of the decode and campaign pipelines: a
// sharded, bounded ring buffer of structured events. The campaigns only
// *count* rare events — miscorrections, DUEs, MAC collisions — but a
// count is useless for forensics; the journal keeps the last N full
// records (which fault, which remainder, which candidate trail) so a
// multi-hour run that ends with "miscorrected: 3" can say exactly what
// those three were.
//
// Design contract:
//
//   - A nil *Journal is a valid, disabled recorder: every method is a
//     no-op (Record is a single nil check), so instrumented code carries
//     no conditional wiring.
//   - Recording is sharded: writers hash across independent locked rings,
//     so heavy concurrent recording does not serialize the campaign.
//   - The buffer is bounded. When a ring is full the oldest event in that
//     shard is overwritten and the drop counter is incremented — memory
//     stays bounded no matter how long the run (and a ring allocates only
//     as it fills, so a generous bound is free), and the operator can see
//     exactly how much history was lost.
//   - Export is pull-based: Snapshot copies, Drain copies-and-clears,
//     both returning events in global sequence order. WriteJSONL and
//     WriteChromeTrace turn an event slice into the two artifact formats
//     (line-delimited JSON for cmd/eccreport; Chrome trace-event JSON,
//     viewable in Perfetto, for worker timelines).
type Journal struct {
	shards []journalShard
	seq    atomic.Uint64

	recorded Counter // events accepted (including later-overwritten ones)
	dropped  Counter // events lost to ring overwrite

	// Streaming fan-out (Subscribe). nsubs mirrors len(subs) so the
	// no-subscriber Record path pays a single atomic load instead of a
	// lock acquisition.
	subMu sync.RWMutex
	subs  []*Subscription
	nsubs atomic.Int32
}

type journalShard struct {
	mu   sync.Mutex
	ring eventRing
}

// eventRing is a bounded FIFO of events that overwrites its oldest event
// when full — the buffer behind each journal shard and each
// subscription. Its backing array grows on demand up to max, so a ring
// bounded for a long run costs memory only for the events it has
// actually held at once.
type eventRing struct {
	buf  []Event
	max  int
	next int // next write slot
	n    int // live events
}

// push stores e, overwriting the oldest event when the ring is full at
// max, and reports whether it did.
func (r *eventRing) push(e Event) (overwrote bool) {
	if r.n == len(r.buf) {
		if len(r.buf) < r.max {
			r.grow()
		} else {
			overwrote = true
		}
	}
	if !overwrote {
		r.n++
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	return overwrote
}

// grow doubles the backing array (at least 16 slots, at most max) and
// moves the live events to its front, oldest first.
func (r *eventRing) grow() {
	buf := r.appendTo(make([]Event, 0, min(max(2*len(r.buf), 16), r.max)))
	r.buf, r.next = buf[:cap(buf)], len(buf)
}

// appendTo appends the live events to dst, oldest first.
func (r *eventRing) appendTo(dst []Event) []Event {
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for k := 0; k < r.n; k++ {
		dst = append(dst, r.buf[(start+k)%len(r.buf)])
	}
	return dst
}

// reset empties the ring, keeping its backing array.
func (r *eventRing) reset() { r.next, r.n = 0, 0 }

// Event kinds recorded by the pipeline. Detail payloads are
// kind-specific; see DecodeAnomaly.
const (
	// KindDecodeAnomaly is a non-clean poly decode: a correction, an
	// Update-ECC fix, a DUE, or a (forced or natural) miscorrection, with
	// the candidate trail in Detail.
	KindDecodeAnomaly = "decode-anomaly"
	// KindTrialOutcome is a campaign trial whose outcome labels matched
	// the campaign's journal filter (plus every recovered panic).
	KindTrialOutcome = "trial-outcome"
	// KindScrubFinding is a correction or DUE found by a patrol sweep.
	KindScrubFinding = "scrub-finding"
	// KindSpan is a timed interval — one campaign worker executing one
	// shard — exported to the Chrome trace timeline.
	KindSpan = "span"
	// KindPolicyAction is one decision of the adaptive memory controller
	// (internal/memctl): quarantine, release, retire, scrub escalation,
	// model reorder, or codec migration, with the triggering evidence in
	// Detail. Policy consumers must skip these on replay (the controller
	// does) so recorded decisions never feed back into new ones.
	KindPolicyAction = "policy-action"
	// KindRegionEvict is the health engine dropping a region from its
	// bounded heatmap at the MaxRegions cap — the cap is never silent.
	KindRegionEvict = "region-evict"
)

// Event is one journal record. Seq and TimeNs are stamped by Record;
// the remaining fields are caller-populated and kind-dependent. Index
// is a generic position: the trial index of a campaign event, the line
// index of a scrub finding.
type Event struct {
	Seq     uint64 `json:"seq"`
	TimeNs  int64  `json:"time_unix_ns"`
	Kind    string `json:"kind"`
	Source  string `json:"source,omitempty"`
	Name    string `json:"name,omitempty"`
	Worker  int    `json:"worker"`
	Index   int    `json:"index,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	DurNs   int64  `json:"dur_ns,omitempty"`
	Detail  any    `json:"detail,omitempty"`
}

// DecodeAnomaly is the Detail payload of a KindDecodeAnomaly (and
// KindScrubFinding) event: the full forensic record of one non-clean
// decode.
type DecodeAnomaly struct {
	Status         string      `json:"status"`
	Model          string      `json:"model,omitempty"` // fault model that produced the MAC match
	Injected       string      `json:"injected,omitempty"`
	Iterations     int         `json:"iterations"`
	CorruptedWords int         `json:"corrupted_words"`
	ECCFixed       bool        `json:"ecc_fixed,omitempty"`
	SDC            bool        `json:"sdc,omitempty"` // corrected to wrong data (MAC collision)
	Words          []WordState `json:"words,omitempty"`
	Trail          []TraceStep `json:"trail,omitempty"`
	TrailDropped   int         `json:"trail_dropped,omitempty"`
}

// WordState is one corrupted codeword of an anomalous line: its index
// within the cacheline and the residue remainder the corrector worked
// from.
type WordState struct {
	Word      int    `json:"word"`
	Remainder uint64 `json:"remainder"`
}

// TraceStep is one candidate application within a correction trial —
// the journal-side mirror of poly.TraceEvent (telemetry cannot import
// poly; poly converts).
type TraceStep struct {
	Model     string `json:"model"`
	Trial     int    `json:"trial"`
	Word      int    `json:"word"`
	Candidate int    `json:"candidate"`
	MACMatch  bool   `json:"mac_match"`
}

// journalShards is the fixed shard count: enough to keep a 96-worker
// campaign's recorders from serializing, small enough that Drain's
// merge stays trivial.
const journalShards = 8

// NewJournal builds a journal bounded to roughly capacity events
// (rounded up to a multiple of the shard count). Capacity <= 0 gets a
// 4096-event default.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + journalShards - 1) / journalShards
	j := &Journal{shards: make([]journalShard, journalShards)}
	for i := range j.shards {
		j.shards[i].ring.max = per
	}
	return j
}

// Enabled reports whether recording does anything; callers building
// expensive Detail payloads should check it first.
func (j *Journal) Enabled() bool { return j != nil }

// Record stamps e with a sequence number and (if unset) the current
// time, then stores it, overwriting the oldest event in its shard when
// full. Safe for concurrent use; a nil journal ignores the call.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	e.Seq = j.seq.Add(1)
	if e.TimeNs == 0 {
		e.TimeNs = time.Now().UnixNano()
	}
	sh := &j.shards[e.Seq%journalShards]
	sh.mu.Lock()
	if sh.ring.push(e) {
		j.dropped.Add(1)
	}
	sh.mu.Unlock()
	j.recorded.Add(1)
	if j.nsubs.Load() != 0 {
		j.fanOut(e)
	}
}

// fanOut pushes e into every live subscription ring. Each subscription
// is bounded independently: a slow consumer loses its own oldest events
// (counted exactly on its Dropped counter) without slowing the journal,
// other subscribers, or the recording hot path.
func (j *Journal) fanOut(e Event) {
	j.subMu.RLock()
	for _, s := range j.subs {
		s.push(e)
	}
	j.subMu.RUnlock()
}

// Recorded returns the number of events ever accepted.
func (j *Journal) Recorded() int64 {
	if j == nil {
		return 0
	}
	return j.recorded.Value()
}

// Dropped returns the number of events overwritten before export.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Value()
}

// Len returns the number of events currently buffered.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	n := 0
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		n += sh.ring.n
		sh.mu.Unlock()
	}
	return n
}

// collect gathers every buffered event in sequence order, clearing the
// rings when drain is set.
func (j *Journal) collect(drain bool) []Event {
	if j == nil {
		return nil
	}
	var out []Event
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.Lock()
		out = sh.ring.appendTo(out)
		if drain {
			sh.ring.reset()
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Snapshot returns a copy of the buffered events in sequence order,
// leaving the journal intact.
func (j *Journal) Snapshot() []Event { return j.collect(false) }

// Drain returns the buffered events in sequence order and empties the
// journal. Events recorded concurrently with the drain land in either
// this batch or the next, never both.
func (j *Journal) Drain() []Event { return j.collect(true) }

// Publish registers the journal's meta-counters in expvar under
// prefix.recorded and prefix.dropped (idempotently, like Publish).
func (j *Journal) Publish(prefix string) {
	if j == nil {
		return
	}
	Publish(prefix+".recorded", &j.recorded)
	Publish(prefix+".dropped", &j.dropped)
}

// --- Streaming subscriptions -----------------------------------------------

// Subscription is one live consumer of the journal stream: every event
// accepted by Record after Subscribe is also pushed into the
// subscription's own bounded ring. It decouples producers from
// consumers completely — a consumer that stalls loses its oldest
// buffered events (counted exactly by Dropped) while recording
// continues at full speed.
//
// Poll drains the buffered events; C is a level-triggered wakeup that
// receives at most one pending notification. Run is the canonical
// consumer loop built from the two.
type Subscription struct {
	j *Journal

	mu      sync.Mutex
	ring    eventRing
	closed  bool
	dropped Counter // events overwritten before this subscriber polled them
	pushed  Counter // events ever pushed to this subscriber

	notify chan struct{} // cap 1, level-triggered
}

// Subscribe attaches a new bounded subscription to the journal stream
// (capacity <= 0 gets a 1024-event default). It returns nil on a nil
// (disabled) journal; every Subscription method tolerates a nil
// receiver, so the disabled path needs no conditional wiring.
func (j *Journal) Subscribe(capacity int) *Subscription {
	if j == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = 1024
	}
	s := &Subscription{
		j:      j,
		ring:   eventRing{max: capacity},
		notify: make(chan struct{}, 1),
	}
	j.subMu.Lock()
	j.subs = append(j.subs, s)
	j.nsubs.Store(int32(len(j.subs)))
	j.subMu.Unlock()
	return s
}

// push stores one event in the subscription ring, overwriting the
// oldest when full, and wakes the consumer.
func (s *Subscription) push(e Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.ring.push(e) {
		s.dropped.Add(1)
	}
	s.pushed.Add(1)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Poll appends every buffered event to dst (oldest first) and clears
// the buffer. Events pushed concurrently land in this batch or the
// next, never both, so received + Dropped always accounts for exactly
// the events pushed. A nil subscription returns dst unchanged.
func (s *Subscription) Poll(dst []Event) []Event {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	dst = s.ring.appendTo(dst)
	s.ring.reset()
	s.mu.Unlock()
	return dst
}

// C returns the wakeup channel: it receives after new events arrive.
// One receive can cover many pushes; always drain with Poll. A nil
// subscription returns a nil (never-ready) channel.
func (s *Subscription) C() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.notify
}

// Dropped returns how many events this subscriber lost to ring
// overwrite before polling them.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Value()
}

// Pushed returns how many events were ever pushed to this subscriber.
func (s *Subscription) Pushed() int64 {
	if s == nil {
		return 0
	}
	return s.pushed.Value()
}

// Run pumps the subscription into handle on a new goroutine: every
// wakeup drains the buffered events into one handle call. The returned
// stop closes the subscription, drains what is still buffered into a
// last handle call and waits for the goroutine to finish. handle must
// not keep the batch: its backing array is reused for the next one. A
// nil subscription starts nothing and returns a no-op stop.
func (s *Subscription) Run(handle func([]Event)) (stop func()) {
	if s == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []Event
		for {
			select {
			case <-stopCh:
				handle(s.Poll(buf[:0]))
				return
			case <-s.notify:
				buf = s.Poll(buf[:0])
				handle(buf)
			}
		}
	}()
	return func() {
		s.Close()
		close(stopCh)
		<-done
	}
}

// Close detaches the subscription from the journal. Buffered events
// stay pollable; further recorded events are no longer delivered.
// Close is idempotent and nil-safe.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	j := s.j
	j.subMu.Lock()
	for i, sub := range j.subs {
		if sub == s {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.nsubs.Store(int32(len(j.subs)))
	j.subMu.Unlock()
}

// AnomalyDetail extracts the typed DecodeAnomaly payload of a
// decode-anomaly or scrub-finding event. In-process events carry the
// struct directly; events read back from JSONL carry a generic map,
// which is re-marshaled into the typed form. Returns false when the
// event has no detail or it does not parse as a DecodeAnomaly.
func (e *Event) AnomalyDetail() (*DecodeAnomaly, bool) {
	switch d := e.Detail.(type) {
	case *DecodeAnomaly:
		return d, true
	case DecodeAnomaly:
		return &d, true
	case nil:
		return nil, false
	default:
		buf, err := json.Marshal(e.Detail)
		if err != nil {
			return nil, false
		}
		var da DecodeAnomaly
		if json.Unmarshal(buf, &da) != nil {
			return nil, false
		}
		return &da, true
	}
}

// WriteJSONL writes events as line-delimited JSON, one event per line —
// the journal artifact format cmd/eccreport consumes.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("telemetry: encode journal event %d: %w", events[i].Seq, err)
		}
	}
	return nil
}

// ReadJSONL parses a journal JSONL stream, validating every line; it is
// both the loader and the format checker (make report-smoke fails on a
// malformed journal through it).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for line := 1; ; line++ {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
}

// chromeTraceEvent is one entry of the Chrome trace-event format
// (catapult "JSON Array Format"), viewable in Perfetto and
// chrome://tracing. Timestamps and durations are microseconds.
type chromeTraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders events as a Chrome trace: KindSpan events
// become complete ("X") slices on their worker's track, everything else
// an instant ("i") marker. Load the output in Perfetto to see the
// campaign's per-worker shard timeline with anomalies pinned on it.
func WriteChromeTrace(w io.Writer, events []Event) error {
	trace := make([]chromeTraceEvent, 0, len(events))
	for _, e := range events {
		ct := chromeTraceEvent{
			Name: e.Name,
			Cat:  e.Kind,
			TsUs: float64(e.TimeNs) / 1e3,
			PID:  1,
			TID:  e.Worker,
			Args: map[string]any{"seq": e.Seq, "source": e.Source},
		}
		if e.Outcome != "" {
			ct.Args["outcome"] = e.Outcome
		}
		if e.Kind == KindSpan {
			ct.Phase = "X"
			ct.DurUs = float64(e.DurNs) / 1e3
		} else {
			ct.Phase = "i"
			ct.Scope = "t"
			if ct.Name == "" {
				ct.Name = e.Kind
			}
		}
		trace = append(trace, ct)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
