package poly

import (
	"polyecc/internal/telemetry"
)

// AnomalyRecorder feeds a telemetry.Journal with the full forensic
// record of every non-clean decode: the corrupted codeword indices and
// their remainders, the outcome, and the applied candidate trail
// captured through the Code's TraceFunc hook. It is the bridge between
// the per-trial trace events (which say what the corrector *tried*) and
// the journal (which must say, after the fact, what happened to one
// specific line).
//
// Like a Scratch, a recorder belongs to one goroutine: the trace hook
// appends to an unsynchronized trail buffer. Give each campaign worker
// its own recorder (campaign.Config.WorkerState) and call RecordDecode
// after every decode — it emits a journal event for anomalies, and
// resets the trail either way.
//
// A recorder built over a nil journal is free: Code() returns the
// original Code untouched (no trace hook, so the 0 allocs/op clean
// decode contract holds) and RecordDecode is a single branch.
type AnomalyRecorder struct {
	journal *telemetry.Journal
	source  string
	code    *Code
	trail   []telemetry.TraceStep
	dropped int // trace events beyond maxTrail
}

// maxTrail bounds the candidate trail kept per decode. ChipKill+1
// searches can run thousands of trials; the journal keeps the head of
// the walk (which shows the hypothesis order) plus the count of what
// was cut.
const maxTrail = 256

// NewAnomalyRecorder wires a recorder to c. Decode through Code(): it
// carries the recorder's trace hook, chained after any hook already on
// c. With a nil journal the original c is returned by Code() and the
// recorder never activates.
func NewAnomalyRecorder(j *telemetry.Journal, source string, c *Code) *AnomalyRecorder {
	r := &AnomalyRecorder{journal: j, source: source, code: c}
	if j.Enabled() {
		r.trail = make([]telemetry.TraceStep, 0, maxTrail)
		hook := r.trace
		if prev := c.cfg.Trace; prev != nil {
			hook = func(e TraceEvent) {
				prev(e)
				r.trace(e)
			}
		}
		r.code = c.WithTrace(hook)
	}
	return r
}

// Code returns the instrumented Code to decode through.
func (r *AnomalyRecorder) Code() *Code { return r.code }

// trace is the TraceFunc hook: it accumulates the candidate trail of
// the decode in flight.
func (r *AnomalyRecorder) trace(e TraceEvent) {
	if len(r.trail) >= maxTrail {
		r.dropped++
		return
	}
	r.trail = append(r.trail, telemetry.TraceStep{
		Model:     e.Model.String(),
		Trial:     e.Trial,
		Word:      e.Word,
		Candidate: e.Candidate,
		MACMatch:  e.MACMatch,
	})
}

// RecordDecode inspects one finished decode of l (the received line, as
// handed to DecodeLine/DecodeLineScratch) and journals it when
// anomalous: any non-clean status, an Update-ECC fix, or sdc (the
// caller's ground-truth comparison). base seeds the journal event —
// callers set Kind (defaulted to decode-anomaly), Source, Worker, and
// Index; injected names the fault model the caller injected, when
// known. The candidate trail is reset for the next decode regardless.
func (r *AnomalyRecorder) RecordDecode(l Line, rep *Report, base telemetry.Event, injected string, sdc bool) {
	if r.journal == nil {
		return
	}
	anomalous := rep.Status != StatusClean || rep.ECCFixed || sdc
	if !anomalous {
		r.trail = r.trail[:0]
		r.dropped = 0
		return
	}
	detail := telemetry.DecodeAnomaly{
		Status:         rep.Status.String(),
		Injected:       injected,
		Iterations:     rep.Iterations,
		CorruptedWords: rep.CorruptedWords,
		ECCFixed:       rep.ECCFixed,
		SDC:            sdc,
		TrailDropped:   r.dropped,
	}
	if rep.Status == StatusCorrected {
		detail.Model = rep.Model.String()
	}
	// The received line is untouched by decode, so the remainders the
	// corrector worked from are recomputable exactly.
	for w, word := range l.Words {
		if rem := r.code.Remainder(word); rem != 0 {
			detail.Words = append(detail.Words, telemetry.WordState{Word: w, Remainder: rem})
		}
	}
	if len(r.trail) > 0 {
		detail.Trail = append([]telemetry.TraceStep(nil), r.trail...)
	}
	if base.Kind == "" {
		base.Kind = telemetry.KindDecodeAnomaly
	}
	if base.Source == "" {
		base.Source = r.source
	}
	if base.Outcome == "" {
		base.Outcome = rep.Status.String()
		if sdc {
			base.Outcome = "miscorrected"
		}
	}
	base.Detail = &detail
	r.journal.Record(base)
	r.trail = r.trail[:0]
	r.dropped = 0
}
