package telemetry

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestJournalRecordAndDrain(t *testing.T) {
	j := NewJournal(64)
	if !j.Enabled() {
		t.Fatal("non-nil journal must report enabled")
	}
	for i := 0; i < 10; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Worker: i % 3, Index: i, Outcome: "sdc"})
	}
	if got := j.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	snap := j.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("Snapshot = %d events, want 10", len(snap))
	}
	for i, e := range snap {
		if i > 0 && e.Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d: %d after %d", i, e.Seq, snap[i-1].Seq)
		}
		if e.TimeNs == 0 {
			t.Fatalf("event %d not timestamped", i)
		}
	}
	// Snapshot must not consume.
	if got := j.Len(); got != 10 {
		t.Fatalf("Len after Snapshot = %d, want 10", got)
	}
	if got := len(j.Drain()); got != 10 {
		t.Fatalf("Drain = %d events, want 10", got)
	}
	if got := j.Len(); got != 0 {
		t.Fatalf("Len after Drain = %d, want 0", got)
	}
}

func TestJournalOverwritesOldest(t *testing.T) {
	j := NewJournal(16) // 2 slots per shard
	const n = 100
	for i := 0; i < n; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Index: i})
	}
	if got := j.Recorded(); got != n {
		t.Fatalf("Recorded = %d, want %d", got, n)
	}
	events := j.Drain()
	if len(events) > 16 {
		t.Fatalf("ring held %d events, capacity 16", len(events))
	}
	if got := j.Dropped(); got != int64(n-len(events)) {
		t.Fatalf("Dropped = %d, want recorded−kept = %d", got, n-len(events))
	}
	// The flight recorder keeps the newest events, not the oldest.
	for _, e := range events {
		if e.Index < n-16*2 {
			t.Fatalf("kept suspiciously old event index %d", e.Index)
		}
	}
}

// A nil journal is the disabled state: every method must be a safe
// no-op so call sites need no branches.
func TestJournalNilDisabled(t *testing.T) {
	var j *Journal
	if j.Enabled() {
		t.Fatal("nil journal must report disabled")
	}
	j.Record(Event{Kind: KindSpan})
	if j.Recorded() != 0 || j.Dropped() != 0 || j.Len() != 0 {
		t.Fatal("nil journal must count nothing")
	}
	if got := j.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if got := j.Drain(); got != nil {
		t.Fatalf("nil Drain = %v, want nil", got)
	}
}

// The campaign engine hammers the journal from every worker while the
// exporter drains — the counters must stay exact and the memory
// bounded. Run with -race this doubles as the locking proof.
func TestJournalConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		capacity  = 256
	)
	j := NewJournal(capacity)
	var wg sync.WaitGroup
	drained := make(chan []Event, 1)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // one concurrent drainer, like the exporter
		defer wg.Done()
		var all []Event
		for {
			select {
			case <-stop:
				all = append(all, j.Drain()...)
				drained <- all
				return
			default:
				all = append(all, j.Drain()...)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				j.Record(Event{Kind: KindTrialOutcome, Worker: w, Index: i})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	all := <-drained

	if got := j.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
	// Every recorded event is either drained or counted as dropped.
	if got := int64(len(all)) + j.Dropped(); got != int64(writers*perWriter) {
		t.Fatalf("drained %d + dropped %d = %d, want %d",
			len(all), j.Dropped(), got, writers*perWriter)
	}
	seen := make(map[uint64]bool, len(all))
	for _, e := range all {
		if seen[e.Seq] {
			t.Fatalf("seq %d drained twice", e.Seq)
		}
		seen[e.Seq] = true
	}
	if j.Len() != 0 {
		t.Fatalf("Len after final drain = %d, want 0", j.Len())
	}
}

func TestJournalJSONLRoundTrip(t *testing.T) {
	j := NewJournal(0)
	j.Record(Event{Kind: KindDecodeAnomaly, Source: "test", Worker: 2, Index: 41, Outcome: "miscorrected",
		Detail: &DecodeAnomaly{Status: "corrected", Model: "SSC", Injected: "DEC", Iterations: 3,
			CorruptedWords: 1, SDC: true,
			Words: []WordState{{Word: 4, Remainder: 0x1a2b}},
			Trail: []TraceStep{{Model: "ChipKill", Trial: 1, Word: 4, Candidate: 0, MACMatch: false}}}})
	j.Record(Event{Kind: KindSpan, Source: "campaign", Name: "shard-0", Worker: 1, DurNs: 1500})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, j.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("JSONL lines = %d, want 2", got)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("ReadJSONL = %d events, want 2", len(events))
	}
	e := events[0]
	if e.Kind != KindDecodeAnomaly || e.Outcome != "miscorrected" || e.Index != 41 {
		t.Fatalf("round-tripped event mangled: %+v", e)
	}
	// Detail survives as a generic map; re-marshal recovers the type.
	raw, _ := json.Marshal(e.Detail)
	var da DecodeAnomaly
	if err := json.Unmarshal(raw, &da); err != nil {
		t.Fatal(err)
	}
	if da.Model != "SSC" || len(da.Words) != 1 || da.Words[0].Remainder != 0x1a2b || len(da.Trail) != 1 {
		t.Fatalf("detail mangled: %+v", da)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed journal line must fail")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	j := NewJournal(0)
	j.Record(Event{Kind: KindSpan, Source: "campaign", Name: "shard-3", Worker: 2, DurNs: 2_000_000})
	j.Record(Event{Kind: KindDecodeAnomaly, Source: "polysoak", Worker: 1, Index: 9, Outcome: "sdc"})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var trace []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(trace) != 2 {
		t.Fatalf("trace events = %d, want 2", len(trace))
	}
	var phases []string
	for _, e := range trace {
		phases = append(phases, fmt.Sprint(e["ph"]))
	}
	sawX, sawI := false, false
	for i, e := range trace {
		switch phases[i] {
		case "X":
			sawX = true
			if e["dur"].(float64) != 2000 { // µs
				t.Fatalf("span dur = %v µs, want 2000", e["dur"])
			}
			if e["tid"].(float64) != 2 {
				t.Fatalf("span tid = %v, want worker 2", e["tid"])
			}
		case "i":
			sawI = true
		}
	}
	if !sawX || !sawI {
		t.Fatalf("want one complete and one instant event, got phases %v", phases)
	}
}

// journal.Publish rides the idempotent registry: re-publication (a
// second CLIFlags.Init in tests, say) must neither panic nor reset.
func TestJournalPublishIdempotent(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Kind: KindSpan})
	j.Publish("telemetry_test.journal")
	j.Publish("telemetry_test.journal")
	if got := expvar.Get("telemetry_test.journal.recorded"); got == nil || got.String() != "1" {
		t.Fatalf("journal.recorded = %v, want 1", got)
	}
	if got := expvar.Get("telemetry_test.journal.dropped"); got == nil || got.String() != "0" {
		t.Fatalf("journal.dropped = %v, want 0", got)
	}
}

// A subscription must deliver the stream without ever slowing or
// corrupting the journal: basic ordering, bounded-buffer drops with
// exact accounting, and detachment on Close.
func TestSubscribeDeliversAndDetaches(t *testing.T) {
	j := NewJournal(64)
	sub := j.Subscribe(8)
	for i := 0; i < 5; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Index: i})
	}
	got := sub.Poll(nil)
	if len(got) != 5 {
		t.Fatalf("Poll = %d events, want 5", len(got))
	}
	for i, e := range got {
		if e.Index != i {
			t.Fatalf("event %d has Index %d: stream out of order", i, e.Index)
		}
	}
	// Overflow the 8-slot ring: the oldest go, the counts stay exact.
	for i := 0; i < 20; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Index: 100 + i})
	}
	got = sub.Poll(got[:0])
	if len(got) != 8 {
		t.Fatalf("Poll after overflow = %d events, want 8", len(got))
	}
	if got[0].Index != 112 || got[7].Index != 119 {
		t.Fatalf("overflow must keep the newest 8: got Index %d..%d", got[0].Index, got[7].Index)
	}
	if d := sub.Dropped(); d != 12 {
		t.Fatalf("Dropped = %d, want 12", d)
	}
	if p := sub.Pushed(); p != 25 {
		t.Fatalf("Pushed = %d, want 25", p)
	}
	sub.Close()
	j.Record(Event{Kind: KindTrialOutcome, Index: 999})
	if rest := sub.Poll(nil); len(rest) != 0 {
		t.Fatalf("closed subscription still received %d events", len(rest))
	}
	// The journal itself never lost anything to the subscriber.
	if j.Recorded() != 26 || j.Dropped() != 0 {
		t.Fatalf("journal recorded=%d dropped=%d, want 26/0", j.Recorded(), j.Dropped())
	}
}

// Nil journal and nil subscription are the disabled path: every method
// must be a safe no-op so instrumented code needs no conditionals.
func TestSubscribeNilSafe(t *testing.T) {
	var j *Journal
	sub := j.Subscribe(16)
	if sub != nil {
		t.Fatal("nil journal must return a nil subscription")
	}
	if got := sub.Poll(nil); got != nil {
		t.Fatalf("nil sub Poll = %v", got)
	}
	if sub.C() != nil {
		t.Fatal("nil sub C() must be a nil channel")
	}
	if sub.Dropped() != 0 || sub.Pushed() != 0 {
		t.Fatal("nil sub counters must read 0")
	}
	sub.Close()
	sub.Run(func([]Event) { t.Error("nil subscription delivered a batch") })()
}

// Run delivers every recorded event exactly once, in order, across its
// wakeup batches and the final drain its stop performs, and stop
// returns only after the pump goroutine has exited.
func TestSubscriptionRunDrainsOnStop(t *testing.T) {
	j := NewJournal(64)
	sub := j.Subscribe(1024)
	var got []int // written by the pump goroutine, read after stop
	stop := sub.Run(func(batch []Event) {
		for _, e := range batch {
			got = append(got, e.Index)
		}
	})
	for i := 0; i < 500; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Index: i})
	}
	stop()
	if len(got) != 500 {
		t.Fatalf("delivered %d events, want 500", len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("event %d delivered as %d: order or duplicates broken", i, idx)
		}
	}
	j.Record(Event{Kind: KindTrialOutcome, Index: 999})
	if sub.Pushed() != 500 {
		t.Fatalf("stop must detach the subscription: pushed %d", sub.Pushed())
	}
}

// The fan-out contract under concurrency: with writers hammering the
// journal and one deliberately slow consumer polling tiny batches, every
// pushed event is either received or counted dropped — never both,
// never lost — and a second subscriber closing mid-stream must not
// disturb the first. Run with -race this is also the data-race proof
// for the subscribe/record/poll/close interleavings.
func TestSubscribeConcurrentExactAccounting(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		total     = writers * perWriter
	)
	j := NewJournal(256)
	sub := j.Subscribe(64) // far smaller than the stream: drops guaranteed
	ephemeral := j.Subscribe(32)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				j.Record(Event{Kind: KindTrialOutcome, Worker: w, Index: i})
			}
		}(w)
	}

	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Event, 0, 16)
		for {
			select {
			case <-sub.C():
				buf = sub.Poll(buf[:0])
				received += len(buf)
			case <-start:
			}
			if sub.Pushed() == int64(total) {
				// Writers are done (pushes happen inside Record): one final
				// drain catches anything between the last wakeup and now.
				received += len(sub.Poll(buf[:0]))
				return
			}
		}
	}()

	close(start)
	// A subscriber detaching mid-stream must not disturb the others.
	ephemeral.Close()
	wg.Wait()
	<-done

	if int64(received)+sub.Dropped() != sub.Pushed() {
		t.Fatalf("accounting broken: received %d + dropped %d != pushed %d",
			received, sub.Dropped(), sub.Pushed())
	}
	if sub.Pushed() != int64(total) {
		t.Fatalf("Pushed = %d, want %d (every Record must fan out)", sub.Pushed(), total)
	}
	if received == 0 {
		t.Fatal("consumer never received anything")
	}
	if j.Recorded() != int64(total) {
		t.Fatalf("journal Recorded = %d, want %d", j.Recorded(), total)
	}
}

// An event ring grows its buffer only as far as the events it holds at
// once, never past its bound, and keeps FIFO order and exact overwrite
// accounting across growth, wraparound and reset.
func TestEventRingGrowsToBound(t *testing.T) {
	r := eventRing{max: 40}
	for i := 0; i < 3; i++ {
		r.push(Event{Index: i})
	}
	if len(r.buf) != 16 {
		t.Fatalf("3 events allocated %d slots, want 16", len(r.buf))
	}
	overwrote := 0
	for i := 3; i < 100; i++ {
		if r.push(Event{Index: i}) {
			overwrote++
		}
	}
	if len(r.buf) != 40 || overwrote != 60 {
		t.Fatalf("buffer %d slots (want 40), %d overwritten (want 60)", len(r.buf), overwrote)
	}
	got := r.appendTo(nil)
	if len(got) != 40 || got[0].Index != 60 || got[39].Index != 99 {
		t.Fatalf("ring holds %d events %d..%d, want 40 events 60..99", len(got), got[0].Index, got[len(got)-1].Index)
	}
	for k := range got {
		if got[k].Index != 60+k {
			t.Fatalf("event %d is %d: order broken", k, got[k].Index)
		}
	}
	r.reset()
	for i := 0; i < 5; i++ {
		r.push(Event{Index: 200 + i})
	}
	if got := r.appendTo(nil); len(got) != 5 || got[0].Index != 200 || got[4].Index != 204 {
		t.Fatalf("after reset: %v", got)
	}
}
