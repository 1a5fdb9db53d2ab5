package scenario

import (
	"fmt"
	"os"

	"polyecc/internal/telemetry"
)

// ReplayStep is one entry of a replayed injection schedule: a recorded
// decode anomaly turned back into "inject this fault model on this
// line at this time".
type ReplayStep struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Line   int    `json:"line"`
	Model  string `json:"model"` // injected model name; "" when the record carried none
	Source string `json:"source"`
}

// LoadSchedule turns a recorded journal stream into an injection
// schedule: every decode-anomaly event becomes one step carrying the
// injected model, the line, and the virtual timestamp. Non-anomaly
// events (spans, trial outcomes, policy actions) are skipped — the
// replay regenerates its own.
func LoadSchedule(events []telemetry.Event) []ReplayStep {
	var steps []ReplayStep
	for i := range events {
		e := &events[i]
		if e.Kind != telemetry.KindDecodeAnomaly {
			continue
		}
		step := ReplayStep{Seq: e.Seq, TimeNs: e.TimeNs, Line: e.Index, Source: e.Source}
		if da, ok := e.AnomalyDetail(); ok {
			step.Model = da.Injected
		}
		steps = append(steps, step)
	}
	return steps
}

// LoadScheduleFile reads a journal JSONL artifact into a schedule.
func LoadScheduleFile(path string) ([]ReplayStep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: replay: %w", err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	return LoadSchedule(events), nil
}

// replayPlan compiles a recorded journal into a plan: one step per
// recorded anomaly, re-injecting the same fault model on the same line
// with the same virtual timestamp, all in one phase named "replay". The
// schedule comes from Opts.ReplayEvents when preloaded, else from
// Spec.Replay.Path. The steps feed whichever driver the spec selects,
// so a replay composes with everything a drawn schedule does: the
// campaign driver shards it across workers with per-step RNG from the
// splitmix64 stream (bit-identical at any worker count, though not to
// the original run's raw masks — replay pins model, line and time, not
// bits) and checkpoints and resumes it; the journal records a fresh
// anomaly stream to diff against the original; and a spec that enables
// memctl re-drives the closed controller loop on the virtual-clock
// driver from the recorded fault sequence.
func replayPlan(s *Spec, opts Opts) (*plan, error) {
	var schedule []ReplayStep
	if len(opts.ReplayEvents) > 0 {
		schedule = LoadSchedule(opts.ReplayEvents)
	} else {
		if s.Replay == nil || s.Replay.Path == "" {
			return nil, fmt.Errorf("scenario %q: replay needs a recorded journal (replay.path or preloaded events)", s.Name)
		}
		loaded, err := LoadScheduleFile(s.Replay.Path)
		if err != nil {
			return nil, err
		}
		schedule = loaded
	}
	if len(schedule) == 0 {
		return nil, fmt.Errorf("scenario %q: the recorded journal holds no decode anomalies to replay", s.Name)
	}
	s.Trials = len(schedule)
	p := &plan{
		spec: s, aggr: -1, schedule: schedule,
		// The one phase counts as the storm: the controller verdict reads
		// the worst health the whole replay reached.
		phases: []phaseSpan{{name: "replay", end: len(schedule), hammer: true}},
		replay: make([]step, len(schedule)),
	}
	hammer := &FaultEnv{Kind: "rowhammer"}
	for i, rs := range schedule {
		st := step{client: -1, line: rs.Line, timeNs: rs.TimeNs}
		switch rs.Model {
		case "":
		case "rowhammer":
			st.fault = hammer
		default:
			st.fault = &FaultEnv{Kind: "model", Model: rs.Model}
		}
		p.replay[i] = st
	}
	return p, nil
}
