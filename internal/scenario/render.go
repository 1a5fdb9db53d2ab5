package scenario

import (
	"fmt"
	"sort"
	"strings"

	"polyecc/internal/latency"
	"polyecc/internal/stats"
)

// Render formats the run for the terminal: a kind-appropriate outcome
// table plus the scenario digest, for presets, -spec runs and replays
// alike.
func (r *Result) Render() string {
	switch r.Spec.Kind {
	case KindPrograms:
		return r.renderPrograms()
	case KindInference:
		return r.renderInference()
	default:
		if r.Seq != nil {
			return r.renderSeq()
		}
		return r.renderDecode()
	}
}

func (r *Result) title(what string) string {
	t := fmt.Sprintf("Scenario %q: %s", r.Spec.Name, what)
	if r.Campaign.Partial {
		t += fmt.Sprintf(" (PARTIAL: %d/%d trials)", r.Campaign.Completed, r.Spec.Trials)
	}
	return t
}

func (r *Result) renderPrograms() string {
	t := stats.NewTable(r.title("program outcomes (%), NE = plain, E = encrypted memory"),
		"Workload", "Memory", "Crashed", "Hang", "SDC", "NoEffect")
	for _, row := range r.ProgramRows() {
		memLabel := "NE"
		if row.Encrypted {
			memLabel = "E"
		}
		t.AddRow(row.Workload, memLabel, row.Crashed, row.Hang, row.SDC, row.NoEffect)
	}
	return t.String()
}

func (r *Result) renderInference() string {
	t := stats.NewTable(r.title("inference accuracy under injected faults"),
		"Client", "Baseline", "Near-baseline", "Failed", ">10% drop share", "Histogram (decile:count)")
	for _, fr := range r.InferenceResults() {
		histStr := ""
		for _, b := range fr.Buckets {
			histStr += fmt.Sprintf("%d-%d%%:%d ", b.LowPct, b.HighPct, b.Count)
		}
		t.AddRow(fr.Name, fr.BaselineAcc, fr.NearBaseline, fr.Failed, fr.BigDropShare, histStr)
	}
	return t.String()
}

func (r *Result) renderDecode() string {
	d := r.Decode()
	t := stats.NewTable(r.title(d.Code+" decode outcomes"),
		"Trials", "Clean", "Corrected", "DUE", "SDC", "Avg iters")
	avg := 0.0
	if d.Completed > 0 {
		avg = float64(d.Iterations) / float64(d.Completed)
	}
	t.AddRow(d.Completed, d.Clean, d.Corrected, d.Uncorrectable, d.SDC, avg)
	out := t.String()
	if d.Panics > 0 {
		out += fmt.Sprintf("absorbed trial panics: %d\n", d.Panics)
	}
	out += sortedCounts("corrections by fault model:", d.PerModel)
	if len(d.PerClient) > 0 {
		out += sortedCounts("trials by client:", d.PerClient)
	}
	if d.AggressorRow >= 0 {
		out += fmt.Sprintf("aggressor row %d (victims %d/%d)\n",
			d.AggressorRow, d.AggressorRow-1, d.AggressorRow+1)
	}
	if len(r.Schedule) > 0 {
		out += fmt.Sprintf("replayed %d recorded anomalies\n", len(r.Schedule))
	}
	out += r.renderLatency()
	return out
}

func (r *Result) renderSeq() string {
	seq := r.Seq
	what := "virtual-clock run"
	if r.Spec.Memctl != nil && r.Spec.Memctl.Enabled {
		what = "closed-loop run through the memory controller"
	}
	if seq.AggressorRow >= 0 {
		what += fmt.Sprintf(", aggressor row %d (victims %d/%d)",
			seq.AggressorRow, seq.AggressorRow-1, seq.AggressorRow+1)
	}
	t := stats.NewTable(r.title(what),
		"Phase", "Trials", "Hammer", "Blocked", "Clean", "Corrected", "DUE", "SDC", "Worst", "End")
	for _, ph := range seq.Phases {
		t.AddRow(ph.Name, ph.Trials, ph.Hammer, ph.Blocked, ph.Clean, ph.Corrected, ph.DUE, ph.SDC, ph.Worst, ph.End)
	}
	out := t.String()
	if len(seq.Actions) > 0 {
		parts := make([]string, 0, len(seq.Actions))
		kinds := make([]string, 0, len(seq.Actions))
		for k := range seq.Actions {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			if n := seq.Actions[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			}
		}
		out += "controller actions: " + strings.Join(parts, " ") + "\n"
	}
	if len(seq.ModelOrder) > 0 {
		out += "decoder trial order: " + strings.Join(seq.ModelOrder, " > ") + "\n"
	}
	if len(seq.RetiredPages) > 0 {
		pages := make([]string, len(seq.RetiredPages))
		for i, p := range seq.RetiredPages {
			pages[i] = fmt.Sprint(p)
		}
		out += "retired pages: " + strings.Join(pages, " ") + "\n"
	}
	for _, mig := range seq.Migrations {
		out += fmt.Sprintf("region %d migrated to %s\n", mig.Region, mig.Codec)
	}
	if seq.ScrubPeak > 0 || seq.FinalScrub != "" {
		out += fmt.Sprintf("scrub cadence: peak level %d, final interval %s\n", seq.ScrubPeak, seq.FinalScrub)
	}
	if seq.ScrubSweeps > 0 {
		out += fmt.Sprintf("patrol: %d sweeps, %d findings\n", seq.ScrubSweeps, seq.ScrubFindings)
	}
	if len(r.Schedule) > 0 {
		out += fmt.Sprintf("replayed %d recorded anomalies\n", len(r.Schedule))
	}
	if r.Spec.Memctl != nil && r.Spec.Memctl.Enabled {
		// The closed-loop verdict `make heal-smoke` greps for.
		if seq.Healed {
			out += fmt.Sprintf("SELF-HEAL OK: storm drove health to %s; the controller escalated the patrol, fenced the victim rows, and health recovered to %s\n",
				strings.ToUpper(seq.StormWorst), strings.ToUpper(seq.FinalStatus))
		} else {
			out += fmt.Sprintf("SELF-HEAL INCOMPLETE: storm worst %s, final %s\n", seq.StormWorst, seq.FinalStatus)
		}
	}
	out += r.renderLatency()
	return out
}

// renderLatency prints the run's latency digest: percentile lines per
// decode-outcome class, then per client and per phase when recorded.
// Empty without a digest.
func (r *Result) renderLatency() string {
	d := r.Latency
	if d == nil {
		return ""
	}
	out := "decode latency (µs):\n"
	for _, cls := range []string{"clean", "corrected", "uncorrectable", "encode"} {
		if q, ok := d.Ops[cls]; ok && q.Count > 0 {
			out += fmt.Sprintf("  %-14s %s\n", cls, quantileLine(q))
		}
	}
	out += quantileGroup("client", d.Clients, nil)
	out += quantileGroup("phase", d.Phases, d.PhaseWallMs)
	return out
}

// quantileGroup prints one named histogram family (clients or phases),
// sorted by name, with an optional wall-clock annotation per entry.
func quantileGroup(kind string, m map[string]latency.Quantiles, wall map[string]float64) string {
	names := make([]string, 0, len(m))
	for name := range m {
		if m[name].Count > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		line := fmt.Sprintf("  %-14s %s", kind+" "+name, quantileLine(m[name]))
		if w, ok := wall[name]; ok {
			line += fmt.Sprintf(" wall=%.0fms", w)
		}
		out += line + "\n"
	}
	return out
}

func quantileLine(q latency.Quantiles) string {
	return fmt.Sprintf("n=%-8d p50=%-8.1f p90=%-8.1f p99=%-8.1f p99.9=%-8.1f max=%.1f",
		q.Count, q.P50/1e3, q.P90/1e3, q.P99/1e3, q.P999/1e3, float64(q.MaxNs)/1e3)
}

func sortedCounts(header string, m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := header + "\n"
	for _, name := range names {
		if n := m[name]; n > 0 {
			out += fmt.Sprintf("  %-11s %d\n", name, n)
		}
	}
	return out
}
