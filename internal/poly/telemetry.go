package poly

import (
	"polyecc/internal/latency"
	"polyecc/internal/telemetry"
)

// NumFaultModels is the number of defined FaultModel values; it sizes
// Report.PerModelTrials and must track the FaultModel const block.
const NumFaultModels = int(ModelChipKillPlus1) + 1

// TraceEvent describes one candidate application within a correction
// trial — the per-iteration view of Figure 8 that the metrics
// histograms aggregate away. A trial selects one candidate per
// corrupted codeword (Algorithm 2), so a trial emits one event per
// codeword it touches, all carrying the same Trial number and the same
// MAC-comparison result.
type TraceEvent struct {
	Model     FaultModel // fault model whose hypothesis is being tried
	Trial     int        // 1-based trial number within this DecodeLine
	Word      int        // codeword index the candidate applies to
	Candidate int        // index into that codeword's candidate list
	MACMatch  bool       // whether this trial's recomputed MAC matched
}

// TraceFunc observes correction trials. Hooks run synchronously on the
// decode path and must be cheap; a nil hook costs a single predictable
// branch. DecodeLine may be called concurrently, so a hook shared
// across goroutines must be safe for concurrent use.
type TraceFunc func(TraceEvent)

// observe feeds one decode's counters into the attached collector
// through the per-model counters cacheCounters resolved.
func (c *Code) observe(rep *Report) {
	m := c.cfg.Metrics
	switch rep.Status {
	case StatusClean:
		m.Clean.Add(1)
		if !rep.ECCFixed && rep.Iterations == 0 {
			// A clean decode with no trials has nothing else to record;
			// skipping the per-model sweep keeps the instrumented clean
			// path inside its 1.25x budget.
			return
		}
	case StatusCorrected:
		m.Corrected.Add(1)
		c.hitCounters[rep.Model].Add(1)
	case StatusUncorrectable:
		m.Uncorrectable.Add(1)
	}
	if rep.ECCFixed {
		m.ECCFixed.Add(1)
	}
	if rep.Status != StatusClean {
		m.Iterations.Observe(int64(rep.Iterations))
	}
	for fm, n := range rep.PerModelTrials {
		if n > 0 {
			c.trialCounters[fm].Add(int64(n))
		}
	}
}

// decodeOp classifies a decode outcome into its latency operation
// class, so distributions are kept per outcome (a corrected decode is
// orders of magnitude slower than a clean one; mixing them hides both).
func decodeOp(st Status) latency.Op {
	switch st {
	case StatusClean:
		return latency.OpDecodeClean
	case StatusCorrected:
		return latency.OpDecodeCorrected
	default:
		return latency.OpDecodeUncorrectable
	}
}

// Metrics returns the collector attached at construction (nil when the
// Code is uninstrumented).
func (c *Code) Metrics() *telemetry.DecodeMetrics { return c.cfg.Metrics }

// Latency returns the probe attached at construction or via
// WithLatency (nil when latency capture is off).
func (c *Code) Latency() *latency.Probe { return c.cfg.Latency }
