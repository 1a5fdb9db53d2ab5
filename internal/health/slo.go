package health

import "fmt"

// State is one position of the per-class SLO state machine.
type State int

const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String renders the state for JSON and /healthz ("ok", "warn", "page").
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	}
	return "unknown"
}

// MarshalText makes State render as its string form in JSON payloads.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the string form back (ecctop consuming /regions
// or a -health-snapshot file).
func (s *State) UnmarshalText(b []byte) error {
	switch string(b) {
	case "ok":
		*s = StateOK
	case "warn":
		*s = StateWarn
	case "page":
		*s = StatePage
	default:
		return fmt.Errorf("health: unknown state %q", b)
	}
	return nil
}

// sloTracker runs multi-window burn-rate alerting for one event class,
// the shape popularized by the SRE workbook: the error budget is a
// sustainable event rate (BudgetPerSec), the burn rate is observed
// rate ÷ budget, and an alert fires only when BOTH a fast window (quick
// detection) and a slow window (sustained, not a blip) exceed the
// threshold. Upgrades are immediate; downgrades wait for HoldDown
// consecutive calm evaluations (one evaluation per completed bucket),
// the hysteresis that stops a flapping storm from re-paging every
// second.
type sloTracker struct {
	class  Class
	budget float64 // sustainable events/sec
	win    *window // shared with the engine's class window

	state   State
	sinceNs int64 // when the current state was entered
	calm    int   // consecutive evaluations below the current state's threshold
}

// SLOStat is the JSON snapshot of one tracker.
type SLOStat struct {
	Class        string  `json:"class"`
	BudgetPerSec float64 `json:"budget_per_sec"`
	BurnFast     float64 `json:"burn_fast"`
	BurnSlow     float64 `json:"burn_slow"`
	State        State   `json:"state"`
	SinceNs      int64   `json:"since_unix_ns"`
}

// burns returns the fast- and slow-window burn rates at nowNs.
func (t *sloTracker) burns(nowNs int64, fastBuckets, slowBuckets int) (fast, slow float64) {
	if t.budget <= 0 {
		return 0, 0
	}
	return t.win.rate(nowNs, fastBuckets) / t.budget, t.win.rate(nowNs, slowBuckets) / t.budget
}

// eval advances the state machine by evals evaluation steps (the number
// of buckets completed since the last call — silent epochs each count
// as one calm evaluation). It returns a transition alert, or nil.
func (t *sloTracker) eval(nowNs int64, cfg *Config, evals int) *Alert {
	fast, slow := t.burns(nowNs, cfg.FastWindowBuckets, cfg.WindowBuckets)
	target := StateOK
	if fast >= warnBurn && slow >= warnBurn {
		target = StateWarn
	}
	if fast >= pageBurn && slow >= pageBurn {
		target = StatePage
	}
	switch {
	case target > t.state:
		prev := t.state
		t.state = target
		t.sinceNs = nowNs
		t.calm = 0
		return &Alert{
			TimeNs:   nowNs,
			Severity: target.String(),
			Kind:     "slo-burn",
			Message: fmt.Sprintf("%s burn %s→%s: fast %.1fx, slow %.1fx of budget %.3g/s",
				t.class, prev, target, fast, slow, t.budget),
		}
	case target < t.state:
		t.calm += evals
		if t.calm >= cfg.HoldDown {
			prev := t.state
			t.state = target
			t.sinceNs = nowNs
			t.calm = 0
			return &Alert{
				TimeNs:   nowNs,
				Severity: "info",
				Kind:     "slo-burn",
				Message: fmt.Sprintf("%s burn resolved %s→%s after %d calm evals",
					t.class, prev, target, cfg.HoldDown),
			}
		}
	default:
		t.calm = 0
	}
	return nil
}

// stat snapshots the tracker at nowNs.
func (t *sloTracker) stat(nowNs int64, cfg *Config) SLOStat {
	fast, slow := t.burns(nowNs, cfg.FastWindowBuckets, cfg.WindowBuckets)
	return SLOStat{
		Class:        t.class.String(),
		BudgetPerSec: t.budget,
		BurnFast:     fast,
		BurnSlow:     slow,
		State:        t.state,
		SinceNs:      t.sinceNs,
	}
}
