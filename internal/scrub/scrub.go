// Package scrub implements a patrol memory scrubber over a Polymorphic
// ECC-protected store — the deployment pattern §VIII-C of the paper
// assumes when it computes SDC exposure after "as few as 100 correctable
// errors" trigger proactive DIMM replacement. The scrubber sweeps the
// region, corrects what the code can correct, writes clean lines back
// (healing latent array faults), and emits per-fault-model counts in the
// shape an OCP Fault Management Infrastructure log consumes (the paper's
// conclusion).
package scrub

import (
	"context"
	"fmt"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/latency"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

// Store is the memory being scrubbed, at burst granularity.
type Store interface {
	Lines() int
	ReadBurst(i int) dram.Burst
	WriteBurst(i int, b dram.Burst)
}

// Event is one noteworthy scrub observation.
type Event struct {
	Line   int
	Report poly.Report
}

// Stats summarizes a sweep.
type Stats struct {
	Clean     int
	Corrected int
	DUE       int
	PerModel  map[poly.FaultModel]int
}

// Policy tunes scrubber behaviour.
type Policy struct {
	// RewriteCorrected controls whether corrected lines are re-encoded
	// and written back (healing array faults at the cost of writes).
	RewriteCorrected bool
	// ReplacementThreshold is the corrected-error count after which the
	// scrubber recommends replacing the DIMM (the paper cites operators
	// replacing after as few as 100 correctable errors).
	ReplacementThreshold int
	// OnSweep, when set, is called by Run after every completed sweep
	// with the 1-based sweep number and that sweep's stats and events.
	// This is where a host injects new faults between patrols, drains
	// the event log into an FMI pipeline, or cancels the run.
	OnSweep func(sweep int, st Stats, events []Event)
	// Journal, when non-nil, receives a scrub-finding flight-recorder
	// event for every correction and DUE the patrol encounters, carrying
	// the line index, remainders, and the applied candidate trail — the
	// forensic half of the FMI log the in-memory Event slice summarizes.
	Journal *telemetry.Journal
	// Interval, when set, is consulted by Run before every inter-sweep
	// pause and overrides the fixed interval — the adaptive-cadence hook
	// the memory controller drives: under an escalation it returns a
	// shorter pause, and a zero or negative return sweeps back to back.
	Interval func() time.Duration
	// Latency, when non-nil, times every patrol decode and rewrite
	// encode by outcome class (poly.Config.Latency semantics). The
	// scrubber is a single-goroutine consumer, so it uses the probe
	// directly — hand it a dedicated fork, not one shared with workers.
	Latency *latency.Probe
}

// DefaultPolicy mirrors the datacenter practice the paper describes.
func DefaultPolicy() Policy {
	return Policy{RewriteCorrected: true, ReplacementThreshold: 100}
}

// Scrubber patrols one store with one code instance. A Scrubber is a
// single-goroutine consumer: it owns one poly.Scratch, so a sweep over
// the whole region performs no per-line heap allocation. Run sweeps from
// at most one goroutine at a time.
type Scrubber struct {
	code    *poly.Code
	store   Store
	policy  Policy
	scratch *poly.Scratch
	rec     *poly.AnomalyRecorder
	buf     [poly.LineBytes]byte

	totalCorrected int
	totalDUE       int
}

// New builds a scrubber. With Policy.Journal set, the scrubber decodes
// through an AnomalyRecorder so every finding carries its candidate
// trail; the recorder shares the scrubber's single-goroutine contract.
func New(code *poly.Code, store Store, policy Policy) (*Scrubber, error) {
	if code == nil || store == nil {
		return nil, fmt.Errorf("scrub: code and store are required")
	}
	if policy.Latency != nil {
		code = code.WithLatency(policy.Latency)
	}
	rec := poly.NewAnomalyRecorder(policy.Journal, "scrub", code)
	return &Scrubber{code: rec.Code(), store: store, policy: policy,
		scratch: code.NewScratch(), rec: rec}, nil
}

// TotalCorrected returns the lifetime corrected-error count.
func (s *Scrubber) TotalCorrected() int { return s.totalCorrected }

// TotalDUE returns the lifetime detected-uncorrectable count.
func (s *Scrubber) TotalDUE() int { return s.totalDUE }

// ReplacementDue reports whether the corrected-error budget is spent and
// the module should be proactively replaced.
func (s *Scrubber) ReplacementDue() bool {
	return s.policy.ReplacementThreshold > 0 && s.totalCorrected >= s.policy.ReplacementThreshold
}

// Sweep reads every line, corrects what it can, optionally rewrites the
// corrected lines, and returns the sweep statistics plus the events
// (corrections and DUEs) for the fault-management log.
func (s *Scrubber) Sweep() (Stats, []Event) {
	st, events, _ := s.SweepContext(context.Background())
	return st, events
}

// SweepContext is Sweep with a cancellation point before every line:
// when ctx is cancelled the sweep stops where it is and returns the
// partial statistics together with the context's error. A nil error
// means the whole region was patrolled.
//
// DUE lines are counted and logged but never written back — the raw
// burst stays in place for offline forensics and for a later mirror
// re-provision; rewriting a decode that failed would launder a detected
// error into silent corruption.
func (s *Scrubber) SweepContext(ctx context.Context) (Stats, []Event, error) {
	st := Stats{PerModel: make(map[poly.FaultModel]int)}
	var events []Event
	for i := 0; i < s.store.Lines(); i++ {
		if err := ctx.Err(); err != nil {
			return st, events, err
		}
		burst := s.store.ReadBurst(i)
		line := s.code.FromBurstScratch(&burst, s.scratch)
		var rep poly.Report
		s.buf, rep = s.code.DecodeLineScratch(line, s.scratch)
		s.rec.RecordDecode(line, &rep, telemetry.Event{
			Kind:  telemetry.KindScrubFinding,
			Index: i,
		}, "", false)
		s.classify(i, s.buf, rep, &st, &events)
	}
	return st, events, nil
}

// classify files one decoded line into the sweep statistics, event log,
// and — for corrected lines under a rewrite policy — back into the
// store. DUE lines are never written back (see SweepContext).
func (s *Scrubber) classify(i int, data [poly.LineBytes]byte, rep poly.Report, st *Stats, events *[]Event) {
	switch rep.Status {
	case poly.StatusClean:
		st.Clean++
	case poly.StatusCorrected:
		st.Corrected++
		s.totalCorrected++
		st.PerModel[rep.Model]++
		*events = append(*events, Event{Line: i, Report: rep})
		if s.policy.RewriteCorrected {
			s.buf = data
			clean := s.code.ToBurst(s.code.EncodeLineScratch(&s.buf, s.scratch))
			s.store.WriteBurst(i, clean)
		}
	case poly.StatusUncorrectable:
		st.DUE++
		s.totalDUE++
		*events = append(*events, Event{Line: i, Report: rep})
	}
}

// RunStats aggregates a patrol run: how many full sweeps finished and
// the summed per-sweep statistics (including any partial final sweep).
type RunStats struct {
	Sweeps    int
	Clean     int
	Corrected int
	DUE       int
	PerModel  map[poly.FaultModel]int
}

func (r *RunStats) add(st Stats) {
	r.Clean += st.Clean
	r.Corrected += st.Corrected
	r.DUE += st.DUE
	for m, n := range st.PerModel {
		r.PerModel[m] += n
	}
}

// Run patrols the store until ctx is cancelled, pausing interval
// between sweeps (interval <= 0 sweeps back to back); a Policy.Interval
// hook replaces the fixed pause per cycle, so an adaptive controller
// can escalate the cadence mid-run. Cancellation is the normal way a
// patrol ends, so it is not an error — the aggregate counts, including
// a partial final sweep, are always returned. The Policy's OnSweep hook
// fires after each completed sweep and may itself cancel the context to
// stop the run.
func (s *Scrubber) Run(ctx context.Context, interval time.Duration) RunStats {
	agg := RunStats{PerModel: make(map[poly.FaultModel]int)}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		start := time.Now()
		st, events, err := s.SweepContext(ctx)
		agg.add(st)
		if err != nil {
			return agg
		}
		agg.Sweeps++
		// Each completed patrol sweep is a span on the flight-recorder
		// timeline, so the health engine and the Chrome trace both see the
		// scrub cadence next to the findings it produced.
		s.policy.Journal.Record(telemetry.Event{
			Kind:    telemetry.KindSpan,
			Source:  "scrub",
			Name:    fmt.Sprintf("sweep-%d", agg.Sweeps),
			Outcome: fmt.Sprintf("corrected=%d due=%d", st.Corrected, st.DUE),
			DurNs:   time.Since(start).Nanoseconds(),
		})
		if s.policy.OnSweep != nil {
			s.policy.OnSweep(agg.Sweeps, st, events)
		}
		pause := interval
		if s.policy.Interval != nil {
			pause = s.policy.Interval()
		}
		if pause <= 0 {
			if ctx.Err() != nil {
				return agg
			}
			continue
		}
		timer.Reset(pause)
		select {
		case <-ctx.Done():
			return agg
		case <-timer.C:
		}
	}
}
