// Command eccreport merges the artifacts a decode or campaign run
// leaves behind — the manifest-stamped run summary (faultinject
// -summary), a campaign checkpoint, the flight-recorder journal JSONL
// (-journal), the health-engine snapshot (faultinject -health-snapshot),
// the benchsnap snapshot, and the benchsnap history — into one
// self-contained static HTML report: provenance tables for every
// manifest found, the scenario digest behind each summary (client mix,
// fault environments, phases), outcome tables with fractions, a forensic table of
// every journaled decode anomaly (candidate trail included, expandable
// per row), an SVG per-worker timeline built from the journal's shard
// spans, the health section (SLO burn states, fault signatures, region
// heatmap, alert timeline), the latency section (per-class and
// per-client/per-phase decode percentiles from the summary's digest, a
// clean-vs-corrected distribution overlay, and SVG trends from the
// recorder's -timeseries JSONL), and the benchmark trend across PRs.
//
// Every input is optional; at least one must be given. The output is a
// single HTML file with no external assets.
//
// Usage:
//
//	eccreport [-summary run.json] [-checkpoint fig4.ckpt] [-journal events.jsonl]
//	          [-health health.json] [-timeseries ticks.jsonl]
//	          [-bench BENCH_decode.json] [-bench-history BENCH_history.jsonl]
//	          [-title "fig4 soak"] [-o report.html]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/health"
	"polyecc/internal/latency"
	"polyecc/internal/memctl"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// benchSnapshot mirrors cmd/benchsnap's Snapshot file format (package
// main there, so the struct cannot be imported).
type benchSnapshot struct {
	GeneratedAt string              `json:"generated_at"`
	GoVersion   string              `json:"go_version"`
	GOARCH      string              `json:"goarch"`
	Config      string              `json:"config"`
	Manifest    *telemetry.Manifest `json:"manifest,omitempty"`
	HintTables  map[string]int64    `json:"hint_table_bytes,omitempty"`
	Benchmarks  []benchResult       `json:"benchmarks"`
}

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// runSummary mirrors cmd/faultinject's -summary file format.
type runSummary struct {
	Manifest *telemetry.Manifest     `json:"manifest"`
	Scenario *scenario.Summary       `json:"scenario"`
	Result   campaign.Result         `json:"result"`
	Latency  *scenario.LatencyDigest `json:"latency"`
}

// scenarioView shapes the embedded spec digest for the report's
// Scenario section: what workload mix produced the outcome tables.
type scenarioView struct {
	Origin  string
	Name    string
	Kind    string
	Trials  int
	Seed    int64
	Code    string
	Lines   int
	Tick    string
	Memctl  bool
	Preset  string
	Notes   string
	Clients []scenario.ClientSummary
	Phases  []string
}

type manifestView struct {
	Origin   string
	Tool     string
	Args     string
	Seed     int64
	Codec    string
	Go       string
	Platform string
	Host     string
	PID      int
	Started  string
	Finished string
	Duration string
}

type countRow struct {
	Label string
	N     int64
	Pct   string
}

type resultView struct {
	Origin    string
	Name      string
	Trials    int
	Completed int
	Skipped   int
	Panics    int64
	Partial   bool
	Elapsed   string
	Counts    []countRow
}

type trailRow struct {
	Model     string
	Trial     int
	Word      int
	Candidate int
	MACMatch  bool
}

type anomalyView struct {
	Seq            uint64
	Time           string
	Kind           string
	Source         string
	Worker         int
	Index          int
	Outcome        string
	Status         string
	Model          string
	Injected       string
	Iterations     int
	CorruptedWords int
	Words          string
	TrailLen       int
	TrailDropped   int
	Trail          []trailRow
}

type svgLane struct {
	Y     int
	TextY int
	Label string
}

type svgSpan struct {
	X, Y, W, H string
	Fill       string
	Tip        string
}

type svgMark struct {
	CX, CY string
	Fill   string
	Tip    string
}

type timelineView struct {
	Width, Height int
	Lanes         []svgLane
	Spans         []svgSpan
	Marks         []svgMark
	Total         string
}

type journalView struct {
	Path      string
	Total     int
	Kinds     []countRow
	Anomalies []anomalyView
	Actions   []actionView
	Timeline  *timelineView
}

// actionView is one self-healing controller decision on the report's
// action timeline.
type actionView struct {
	Seq      int64
	Time     string
	Kind     string
	Target   string
	From     string
	To       string
	Evidence string
}

type sloRow struct {
	Class  string
	Budget float64
	Fast   string
	Slow   string
	State  string
	Hot    bool
}

type classRow struct {
	Class string
	Total int64
	Fast  string
	Slow  string
	EWMA  string
}

type sigRow struct {
	Kind  string
	Where string
	Count int
	Last  string
}

type heatRow struct {
	Region    int
	FirstLine int
	Corrected int64
	DUE       int64
	SDC       int64
	Scrub     int64
	Rate      string
	BarPct    int
}

type alertRow struct {
	Time     string
	Severity string
	Kind     string
	Message  string
	Page     bool
}

type healthView struct {
	Origin     string
	Status     string
	Page       bool
	Events     int64
	Dropped    int64
	Regions    int
	Overflowed int64
	Window     string
	SLOs       []sloRow
	Classes    []classRow
	Signatures []sigRow
	Heatmap    []heatRow
	HeatHidden int
	Alerts     []alertRow
}

// latRow is one line of the Latency section's percentile table: a
// decode-outcome class, a client, or a phase (µs columns).
type latRow struct {
	Kind string // "", "client", "phase"
	Name string
	N    int64
	Mean string
	P50  string
	P90  string
	P99  string
	P999 string
	Max  string
	Wall string // phases only: wall-clock window
}

type svgText struct {
	X, Y string
	Fill string
	Text string
}

type svgPoly struct {
	Points string
	Stroke string
}

// latChart is a generic inline-SVG canvas: bars for the histogram
// overlay, polylines for the time-series trends.
type latChart struct {
	Width, Height int
	Bars          []svgSpan
	Polys         []svgPoly
	Texts         []svgText
}

type latencyView struct {
	Origin     string
	Rows       []latRow
	Overlay    *latChart // clean-vs-corrected decode time distribution
	Series     *latChart // recorder window trends
	SeriesNote string
}

type historyTable struct {
	Columns []string
	Rows    []historyRow
}

type historyRow struct {
	When  string
	Go    string
	Cells []string
}

type page struct {
	Title     string
	Generated string
	Manifests []manifestView
	Scenarios []scenarioView
	Results   []resultView
	Journal   *journalView
	Health    *healthView
	Latency   *latencyView
	Bench     *benchSnapshot
	History   *historyTable
}

func main() {
	out := flag.String("o", "report.html", "report output path")
	title := flag.String("title", "polyecc run report", "report title")
	summaryPath := flag.String("summary", "", "run summary JSON written by faultinject -summary")
	ckptPath := flag.String("checkpoint", "", "campaign checkpoint file")
	journalPath := flag.String("journal", "", "flight-recorder journal JSONL")
	healthPath := flag.String("health", "", "health snapshot JSON written by faultinject -health-snapshot")
	benchPath := flag.String("bench", "", "benchsnap snapshot (BENCH_decode.json)")
	historyPath := flag.String("bench-history", "", "benchsnap history (BENCH_history.jsonl)")
	tsPath := flag.String("timeseries", "", "recorder time-series JSONL written by faultinject -timeseries")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	flag.Parse()
	logger := obs.Init("eccreport")

	if *summaryPath == "" && *ckptPath == "" && *journalPath == "" && *healthPath == "" && *benchPath == "" && *historyPath == "" && *tsPath == "" {
		flag.Usage()
		telemetry.Fatal(logger, "nothing to report on: give at least one of -summary, -checkpoint, -journal, -health, -bench, -bench-history, -timeseries")
	}

	pg := page{Title: *title, Generated: time.Now().UTC().Format(time.RFC3339)}

	if *summaryPath != "" {
		var sum runSummary
		readJSON(logger, *summaryPath, &sum)
		if sum.Manifest != nil {
			pg.Manifests = append(pg.Manifests, manifestRow(*summaryPath, sum.Manifest))
		}
		if sum.Scenario != nil {
			pg.Scenarios = append(pg.Scenarios, scenarioRow(*summaryPath, sum.Scenario))
		}
		pg.Results = append(pg.Results, resultRow(*summaryPath, sum.Result.Name, sum.Result.Trials,
			sum.Result.Completed, sum.Result.Skipped, sum.Result.Panics, sum.Result.Partial,
			sum.Result.Elapsed.String(), sum.Result.Counts))
		if sum.Latency != nil {
			pg.Latency = latencySection(*summaryPath, sum.Latency)
		}
	}
	if *tsPath != "" {
		ticks, m, err := telemetry.ReadTimeseriesFile(*tsPath)
		if err != nil {
			telemetry.Fatal(logger, "read timeseries", "path", *tsPath, "err", err)
		}
		if m != nil {
			pg.Manifests = append(pg.Manifests, manifestRow(*tsPath, m))
		}
		if pg.Latency == nil {
			pg.Latency = &latencyView{Origin: *tsPath}
		}
		pg.Latency.Series = seriesChart(ticks)
		pg.Latency.SeriesNote = fmt.Sprintf("%d recorder ticks from %s", len(ticks), *tsPath)
	}
	if *ckptPath != "" {
		info, err := campaign.ReadCheckpointInfo(*ckptPath)
		if err != nil {
			telemetry.Fatal(logger, "read checkpoint", "path", *ckptPath, "err", err)
		}
		if info.Manifest != nil {
			pg.Manifests = append(pg.Manifests, manifestRow(*ckptPath, info.Manifest))
		}
		pg.Results = append(pg.Results, resultRow(*ckptPath, info.Name, info.Trials,
			info.Completed, 0, info.Panics, info.Partial,
			"saved "+info.SavedAt.UTC().Format(time.RFC3339), info.Counts))
	}
	if *journalPath != "" {
		f, err := os.Open(*journalPath)
		if err != nil {
			telemetry.Fatal(logger, "open journal", "path", *journalPath, "err", err)
		}
		events, err := telemetry.ReadJSONL(f)
		f.Close()
		if err != nil {
			telemetry.Fatal(logger, "parse journal", "path", *journalPath, "err", err)
		}
		pg.Journal = journalSection(*journalPath, events)
	}
	if *healthPath != "" {
		var snap health.Snapshot
		readJSON(logger, *healthPath, &snap)
		pg.Health = healthSection(*healthPath, &snap)
	}
	if *benchPath != "" {
		var snap benchSnapshot
		readJSON(logger, *benchPath, &snap)
		pg.Bench = &snap
		if snap.Manifest != nil {
			pg.Manifests = append(pg.Manifests, manifestRow(*benchPath, snap.Manifest))
		}
	}
	if *historyPath != "" {
		pg.History = historySection(logger, *historyPath)
	}

	var sb strings.Builder
	if err := reportTemplate.Execute(&sb, &pg); err != nil {
		telemetry.Fatal(logger, "render report", "err", err)
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		telemetry.Fatal(logger, "write report", "path", *out, "err", err)
	}
	logger.Info("wrote report", "path", *out, "bytes", sb.Len(),
		"manifests", len(pg.Manifests), "results", len(pg.Results))
}

func readJSON(logger *slog.Logger, path string, v any) {
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, v)
	}
	if err != nil {
		telemetry.Fatal(logger, "read input", "path", path, "err", err)
	}
}

func manifestRow(origin string, m *telemetry.Manifest) manifestView {
	v := manifestView{
		Origin:   origin,
		Tool:     m.Tool,
		Args:     strings.Join(m.Args, " "),
		Seed:     m.Seed,
		Codec:    m.Codec,
		Go:       m.GoVersion,
		Platform: m.GOOS + "/" + m.GOARCH,
		Host:     m.Host,
		PID:      m.PID,
		Started:  m.Started.UTC().Format(time.RFC3339),
	}
	if m.Finished.IsZero() {
		v.Finished = "(in flight)"
	} else {
		v.Finished = m.Finished.UTC().Format(time.RFC3339)
		v.Duration = m.Finished.Sub(m.Started).Round(time.Millisecond).String()
	}
	return v
}

func scenarioRow(origin string, s *scenario.Summary) scenarioView {
	return scenarioView{
		Origin: origin, Name: s.Name, Kind: s.Kind, Trials: s.Trials,
		Seed: s.Seed, Code: s.Code, Lines: s.Lines, Tick: s.Tick,
		Memctl: s.Memctl, Preset: s.Preset, Notes: s.Notes,
		Clients: s.Clients, Phases: s.Phases,
	}
}

func resultRow(origin, name string, trials, completed, skipped int, panics int64, partial bool, elapsed string, counts map[string]int64) resultView {
	v := resultView{Origin: origin, Name: name, Trials: trials, Completed: completed,
		Skipped: skipped, Panics: panics, Partial: partial, Elapsed: elapsed}
	v.Counts = countRows(counts, int64(completed))
	return v
}

// countRows sorts label counts by weight and computes fractions of
// denom (0 suppresses the fraction column).
func countRows(counts map[string]int64, denom int64) []countRow {
	rows := make([]countRow, 0, len(counts))
	for label, n := range counts {
		r := countRow{Label: label, N: n}
		if denom > 0 {
			r.Pct = fmt.Sprintf("%.2f%%", 100*float64(n)/float64(denom))
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N > rows[j].N
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

func journalSection(path string, events []telemetry.Event) *journalView {
	jv := &journalView{Path: path, Total: len(events)}
	kinds := make(map[string]int64)
	for _, e := range events {
		kinds[e.Kind]++
	}
	jv.Kinds = countRows(kinds, int64(len(events)))

	for _, e := range events {
		if e.Kind != telemetry.KindDecodeAnomaly && e.Kind != telemetry.KindScrubFinding {
			continue
		}
		av := anomalyView{
			Seq:     e.Seq,
			Time:    time.Unix(0, e.TimeNs).UTC().Format("15:04:05.000000"),
			Kind:    e.Kind,
			Source:  e.Source,
			Worker:  e.Worker,
			Index:   e.Index,
			Outcome: e.Outcome,
		}
		if da, ok := e.AnomalyDetail(); ok {
			av.Status = da.Status
			av.Model = da.Model
			av.Injected = da.Injected
			av.Iterations = da.Iterations
			av.CorruptedWords = da.CorruptedWords
			av.TrailDropped = da.TrailDropped
			var words []string
			for _, w := range da.Words {
				words = append(words, fmt.Sprintf("w%d:0x%x", w.Word, w.Remainder))
			}
			av.Words = strings.Join(words, " ")
			av.TrailLen = len(da.Trail)
			for _, s := range da.Trail {
				av.Trail = append(av.Trail, trailRow(s))
			}
		}
		jv.Anomalies = append(jv.Anomalies, av)
	}

	// The self-healing action timeline: every policy-action event the
	// adaptive memory controller journaled, with its evidence.
	for i := range events {
		a, ok := memctl.ActionDetail(&events[i])
		if !ok {
			continue
		}
		jv.Actions = append(jv.Actions, actionView{
			Seq:      a.Seq,
			Time:     time.Unix(0, a.TimeNs).UTC().Format("15:04:05.000000"),
			Kind:     a.Kind,
			Target:   a.Target(),
			From:     a.From,
			To:       a.To,
			Evidence: a.Evidence,
		})
	}
	jv.Timeline = timelineSection(events)
	return jv
}

// timelineSection lays the journal's shard spans out as one SVG lane
// per worker, with anomaly events as markers on their worker's lane.
func timelineSection(events []telemetry.Event) *timelineView {
	var t0, t1 int64
	workers := make(map[int]bool)
	spans := 0
	for _, e := range events {
		end := e.TimeNs + e.DurNs
		if t0 == 0 || e.TimeNs < t0 {
			t0 = e.TimeNs
		}
		if end > t1 {
			t1 = end
		}
		workers[e.Worker] = true
		if e.Kind == telemetry.KindSpan {
			spans++
		}
	}
	if spans == 0 || t1 <= t0 {
		return nil
	}
	order := make([]int, 0, len(workers))
	for w := range workers {
		order = append(order, w)
	}
	sort.Ints(order)
	lane := make(map[int]int, len(order))
	for i, w := range order {
		lane[w] = i
	}

	const (
		left   = 80
		plotW  = 820
		rowH   = 22
		barH   = 14
		footer = 24
	)
	tv := &timelineView{
		Width:  left + plotW + 10,
		Height: len(order)*rowH + footer,
		Total:  time.Duration(t1 - t0).Round(time.Microsecond).String(),
	}
	xAt := func(ns int64) float64 {
		return left + plotW*float64(ns-t0)/float64(t1-t0)
	}
	for i, w := range order {
		tv.Lanes = append(tv.Lanes, svgLane{Y: i * rowH, TextY: i*rowH + rowH/2 + 4,
			Label: fmt.Sprintf("worker %d", w)})
	}
	for _, e := range events {
		y := lane[e.Worker] * rowH
		if e.Kind == telemetry.KindSpan {
			x := xAt(e.TimeNs)
			w := xAt(e.TimeNs+e.DurNs) - x
			if w < 1 {
				w = 1
			}
			tv.Spans = append(tv.Spans, svgSpan{
				X: fmt.Sprintf("%.1f", x), Y: fmt.Sprintf("%d", y+(rowH-barH)/2),
				W: fmt.Sprintf("%.1f", w), H: fmt.Sprintf("%d", barH),
				Fill: fmt.Sprintf("hsl(%d,55%%,55%%)", (lane[e.Worker]*47)%360),
				Tip: fmt.Sprintf("%s %s: %s", e.Source, e.Name,
					time.Duration(e.DurNs).Round(time.Microsecond)),
			})
			continue
		}
		fill := "steelblue"
		switch {
		case strings.Contains(e.Outcome, "miscorrect") || strings.Contains(e.Outcome, "sdc"):
			fill = "crimson"
		case strings.Contains(e.Outcome, "uncorrectable") || strings.Contains(e.Outcome, "due") ||
			strings.Contains(e.Outcome, "panic"):
			fill = "darkorange"
		}
		tv.Marks = append(tv.Marks, svgMark{
			CX: fmt.Sprintf("%.1f", xAt(e.TimeNs)), CY: fmt.Sprintf("%d", y+rowH/2),
			Fill: fill,
			Tip:  fmt.Sprintf("#%d %s %s (trial %d)", e.Seq, e.Kind, e.Outcome, e.Index),
		})
	}
	return tv
}

// healthSection shapes a health-engine snapshot into the report's
// static equivalent of the ecctop dashboard: SLO burn table, class
// rates, fault signatures, the hottest-first region heatmap, and the
// alert timeline.
func healthSection(path string, s *health.Snapshot) *healthView {
	hv := &healthView{
		Origin:     path,
		Status:     strings.ToUpper(s.Status.String()),
		Page:       s.Status == health.StatePage,
		Events:     s.Events,
		Dropped:    s.SubDropped,
		Regions:    s.RegionsTotal,
		Overflowed: s.RegionsOver,
		Window:     fmt.Sprintf("%.0fs", s.WindowSeconds),
	}
	for _, t := range s.SLOs {
		hv.SLOs = append(hv.SLOs, sloRow{
			Class: t.Class, Budget: t.BudgetPerSec,
			Fast:  fmt.Sprintf("%.1fx", t.BurnFast),
			Slow:  fmt.Sprintf("%.1fx", t.BurnSlow),
			State: strings.ToUpper(t.State.String()),
			Hot:   t.State != health.StateOK,
		})
	}
	for _, class := range []string{"corrected", "due", "sdc", "scrub"} {
		c := s.Classes[class]
		hv.Classes = append(hv.Classes, classRow{
			Class: class, Total: c.Total,
			Fast: fmt.Sprintf("%.2f", c.RateFast),
			Slow: fmt.Sprintf("%.2f", c.RateSlow),
			EWMA: fmt.Sprintf("%.2f", c.EWMA),
		})
	}
	for _, sig := range s.Signatures {
		where := fmt.Sprintf("count %d", sig.Count)
		switch sig.Kind {
		case "rowhammer-storm":
			where = fmt.Sprintf("aggressor row %d", sig.Row)
		case "repeat-offender":
			where = fmt.Sprintf("line %d (region %d)", sig.Line, sig.Region)
		case "scrub-recurrence":
			where = fmt.Sprintf("region %d", sig.Region)
		}
		hv.Signatures = append(hv.Signatures, sigRow{
			Kind: sig.Kind, Where: where, Count: sig.Count,
			Last: time.Unix(0, sig.LastNs).UTC().Format("15:04:05"),
		})
	}
	regions := append([]health.RegionStat(nil), s.Regions...)
	sort.Slice(regions, func(a, b int) bool {
		ea := regions[a].Corrected + regions[a].DUE + regions[a].SDC
		eb := regions[b].Corrected + regions[b].DUE + regions[b].SDC
		if ea != eb {
			return ea > eb
		}
		return regions[a].Region < regions[b].Region
	})
	var maxErr int64 = 1
	for _, r := range regions {
		if n := r.Corrected + r.DUE + r.SDC; n > maxErr {
			maxErr = n
		}
	}
	const heatTop = 32
	shown := regions
	if len(shown) > heatTop {
		shown = shown[:heatTop]
		hv.HeatHidden = len(regions) - heatTop
	}
	for _, r := range shown {
		n := r.Corrected + r.DUE + r.SDC
		hv.Heatmap = append(hv.Heatmap, heatRow{
			Region: r.Region, FirstLine: r.FirstLine,
			Corrected: r.Corrected, DUE: r.DUE, SDC: r.SDC, Scrub: r.Scrub,
			Rate:   fmt.Sprintf("%.2f", r.RateSlow),
			BarPct: int(n * 100 / maxErr),
		})
	}
	for _, a := range s.Alerts {
		hv.Alerts = append(hv.Alerts, alertRow{
			Time:     time.Unix(0, a.TimeNs).UTC().Format("15:04:05.000"),
			Severity: strings.ToUpper(a.Severity),
			Kind:     a.Kind,
			Message:  a.Message,
			Page:     a.Severity == "page",
		})
	}
	return hv
}

// latencySection shapes a run's latency digest into the report's
// percentile tables plus the clean-vs-corrected distribution overlay.
func latencySection(origin string, d *scenario.LatencyDigest) *latencyView {
	lv := &latencyView{Origin: origin}
	us := func(ns float64) string { return fmt.Sprintf("%.1f", ns/1e3) }
	add := func(kind, name string, q latency.Quantiles, wall string) {
		if q.Count == 0 {
			return
		}
		lv.Rows = append(lv.Rows, latRow{
			Kind: kind, Name: name, N: q.Count,
			Mean: us(q.MeanNs), P50: us(q.P50), P90: us(q.P90),
			P99: us(q.P99), P999: us(q.P999), Max: us(float64(q.MaxNs)),
			Wall: wall,
		})
	}
	for _, cls := range []string{"clean", "corrected", "uncorrectable", "encode"} {
		add("", cls, d.Ops[cls], "")
	}
	for _, name := range sortedQKeys(d.Clients) {
		add("client", name, d.Clients[name], "")
	}
	for _, name := range sortedQKeys(d.Phases) {
		wall := ""
		if w, ok := d.PhaseWallMs[name]; ok {
			wall = fmt.Sprintf("%.0fms", w)
		}
		add("phase", name, d.Phases[name], wall)
	}
	lv.Overlay = overlayChart(d.Overlay)
	return lv
}

func sortedQKeys(m map[string]latency.Quantiles) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// overlayChart draws the clean and corrected decode-time histograms on
// one log-scaled time axis, so the cost of correction reads directly as
// the horizontal shift between the two distributions.
func overlayChart(o *scenario.LatencyOverlay) *latChart {
	if o == nil || (len(o.Clean) == 0 && len(o.Corrected) == 0) {
		return nil
	}
	const (
		left  = 10
		plotW = 820
		plotH = 150
		axisH = 22
	)
	loNs, hiNs := int64(0), int64(0)
	var maxN int64 = 1
	for _, series := range [][]latency.BucketCount{o.Clean, o.Corrected} {
		for _, b := range series {
			if loNs == 0 || b.LoNs < loNs {
				loNs = b.LoNs
			}
			if b.HiNs > hiNs {
				hiNs = b.HiNs
			}
			if b.N > maxN {
				maxN = b.N
			}
		}
	}
	if loNs < 1 {
		loNs = 1
	}
	logLo, logHi := math.Log(float64(loNs)), math.Log(float64(hiNs))
	if logHi <= logLo {
		logHi = logLo + 1
	}
	xAt := func(ns int64) float64 {
		if ns < 1 {
			ns = 1
		}
		return left + plotW*(math.Log(float64(ns))-logLo)/(logHi-logLo)
	}
	ch := &latChart{Width: left + plotW + 10, Height: plotH + axisH}
	draw := func(series []latency.BucketCount, label, fill string) {
		for _, b := range series {
			x := xAt(b.LoNs)
			w := xAt(b.HiNs) - x
			if w < 1 {
				w = 1
			}
			h := float64(plotH-10) * float64(b.N) / float64(maxN)
			if h < 1 {
				h = 1
			}
			ch.Bars = append(ch.Bars, svgSpan{
				X: fmt.Sprintf("%.1f", x), Y: fmt.Sprintf("%.1f", float64(plotH)-h),
				W: fmt.Sprintf("%.1f", w), H: fmt.Sprintf("%.1f", h),
				Fill: fill,
				Tip: fmt.Sprintf("%s %s–%s: %d", label,
					time.Duration(b.LoNs), time.Duration(b.HiNs), b.N),
			})
		}
	}
	draw(o.Clean, "clean", "#2a9d8f")
	draw(o.Corrected, "corrected", "#e76f51")
	// Decade ticks across whatever the data spans.
	for ns := int64(1); ns <= hiNs; ns *= 10 {
		if ns < loNs {
			continue
		}
		ch.Texts = append(ch.Texts, svgText{
			X: fmt.Sprintf("%.1f", xAt(ns)), Y: fmt.Sprintf("%d", plotH+14),
			Fill: "#777", Text: time.Duration(ns).String(),
		})
	}
	ch.Texts = append(ch.Texts,
		svgText{X: "14", Y: "14", Fill: "#2a9d8f", Text: "■ clean"},
		svgText{X: "80", Y: "14", Fill: "#e76f51", Text: "■ corrected"})
	return ch
}

// seriesChart turns the recorder window into polyline trends: every
// windowed latency p99 plus the mean, one line per series, scaled to
// the window maximum.
func seriesChart(ticks []telemetry.Tick) *latChart {
	if len(ticks) < 2 {
		return nil
	}
	keySet := make(map[string]bool)
	for _, t := range ticks {
		for k := range t.Values {
			if strings.HasPrefix(k, "latency.") && strings.HasSuffix(k, ".p99") {
				keySet[k] = true
			}
		}
	}
	if len(keySet) == 0 {
		return nil
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const (
		left  = 10
		plotW = 820
		plotH = 150
		axisH = 22
	)
	t0, t1 := ticks[0].TimeNs, ticks[len(ticks)-1].TimeNs
	if t1 <= t0 {
		t1 = t0 + 1
	}
	vmax := 1.0
	for _, t := range ticks {
		for _, k := range keys {
			if v, ok := t.Values[k]; ok && v > vmax {
				vmax = v
			}
		}
	}
	palette := []string{"#2a9d8f", "#e76f51", "#264653", "#e9c46a", "#8ab17d", "#6d597a"}
	ch := &latChart{Width: left + plotW + 10, Height: plotH + axisH}
	for i, k := range keys {
		var pts []string
		for _, t := range ticks {
			v, ok := t.Values[k]
			if !ok {
				continue // no observations that interval: gap, not zero
			}
			x := left + float64(plotW)*float64(t.TimeNs-t0)/float64(t1-t0)
			y := float64(plotH) - float64(plotH-14)*v/vmax
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		if len(pts) < 2 {
			continue
		}
		color := palette[i%len(palette)]
		ch.Polys = append(ch.Polys, svgPoly{Points: strings.Join(pts, " "), Stroke: color})
		label := strings.TrimSuffix(strings.TrimPrefix(k, "latency."), ".p99") + " p99"
		ch.Texts = append(ch.Texts, svgText{
			X: fmt.Sprintf("%d", 14+i*110), Y: "14", Fill: color, Text: "— " + label,
		})
	}
	if len(ch.Polys) == 0 {
		return nil
	}
	ch.Texts = append(ch.Texts,
		svgText{X: "14", Y: "30", Fill: "#777",
			Text: fmt.Sprintf("peak %s", time.Duration(int64(vmax)).Round(time.Microsecond))},
		svgText{X: fmt.Sprintf("%d", left), Y: fmt.Sprintf("%d", plotH+14), Fill: "#777",
			Text: fmt.Sprintf("window %s", time.Duration(t1-t0).Round(time.Second))})
	return ch
}

func historySection(logger *slog.Logger, path string) *historyTable {
	buf, err := os.ReadFile(path)
	if err != nil {
		telemetry.Fatal(logger, "read history", "path", path, "err", err)
	}
	var snaps []benchSnapshot
	dec := json.NewDecoder(bytes.NewReader(buf))
	for line := 1; ; line++ {
		var s benchSnapshot
		if err := dec.Decode(&s); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			telemetry.Fatal(logger, "parse history", "path", path, "line", line, "err", err)
		}
		snaps = append(snaps, s)
	}
	// Columns are the union of scenario names across runs, so a scenario
	// added mid-history still gets a column (blank before it existed).
	seen := make(map[string]bool)
	var cols []string
	for _, s := range snaps {
		for _, b := range s.Benchmarks {
			if !seen[b.Name] {
				seen[b.Name] = true
				cols = append(cols, b.Name)
			}
		}
	}
	ht := &historyTable{Columns: cols}
	for _, s := range snaps {
		byName := make(map[string]benchResult, len(s.Benchmarks))
		for _, b := range s.Benchmarks {
			byName[b.Name] = b
		}
		row := historyRow{When: s.GeneratedAt, Go: s.GoVersion}
		for _, c := range cols {
			if b, ok := byName[c]; ok {
				row.Cells = append(row.Cells, fmt.Sprintf("%.1f", b.NsPerOp))
			} else {
				row.Cells = append(row.Cells, "")
			}
		}
		ht.Rows = append(ht.Rows, row)
	}
	return ht
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: 13px; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; vertical-align: top; }
th { background: #f0f2f5; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code { background: #f4f4f6; padding: 0 .25rem; border-radius: 3px; }
.partial { color: #b00; font-weight: 600; }
.muted { color: #777; }
details summary { cursor: pointer; color: #246; }
svg { background: #fafbfc; border: 1px solid #ddd; }
.heat { display: inline-block; height: 10px; background: linear-gradient(90deg, #f6b93b, #e55039); border-radius: 2px; vertical-align: middle; }
.status-page { color: #b00; font-weight: 700; }
.status-ok { color: #2a7; font-weight: 700; }
</style>
</head>
<body id="polyecc-report">
<h1>{{.Title}}</h1>
<p class="muted">generated {{.Generated}} by eccreport</p>

{{if .Manifests}}
<h2>Run provenance</h2>
<table>
<tr><th>artifact</th><th>tool</th><th>args</th><th class="num">seed</th><th>codec</th><th>go</th><th>platform</th><th>host</th><th class="num">pid</th><th>started</th><th>finished</th><th>duration</th></tr>
{{range .Manifests}}<tr><td><code>{{.Origin}}</code></td><td>{{.Tool}}</td><td><code>{{.Args}}</code></td><td class="num">{{.Seed}}</td><td>{{.Codec}}</td><td>{{.Go}}</td><td>{{.Platform}}</td><td>{{.Host}}</td><td class="num">{{.PID}}</td><td>{{.Started}}</td><td>{{.Finished}}</td><td>{{.Duration}}</td></tr>
{{end}}</table>
{{end}}

{{if .Scenarios}}
<h2>Scenario</h2>
{{range .Scenarios}}
<h3>{{.Name}} <span class="muted">({{.Origin}})</span></h3>
<p>{{.Kind}} scenario, {{.Trials}} trials, seed {{.Seed}}{{if .Code}}, code <code>{{.Code}}</code>{{end}}{{if .Lines}}, {{.Lines}} lines{{end}}{{if .Tick}}, tick {{.Tick}}{{end}}{{if .Memctl}}, <b>closed memctl loop</b>{{end}}{{if .Preset}} &mdash; built-in preset <code>{{.Preset}}</code>{{end}}</p>
{{if .Notes}}<p class="muted">{{.Notes}}</p>{{end}}
{{if .Clients}}<table>
<tr><th>client</th><th class="num">fraction</th><th>arrival</th><th>access</th><th>faults</th></tr>
{{range .Clients}}<tr><td>{{.Name}}</td><td class="num">{{printf "%.3f" .Fraction}}</td><td>{{.Arrival}}</td><td>{{.Access}}</td><td><code>{{.Faults}}</code></td></tr>
{{end}}</table>{{end}}
{{if .Phases}}<p>phases: {{range $i, $p := .Phases}}{{if $i}} &rarr; {{end}}<code>{{$p}}</code>{{end}}</p>{{end}}
{{end}}
{{end}}

{{if .Latency}}
<h2>Latency</h2>
<p class="muted">decode-path timing from <code>{{.Latency.Origin}}</code> (µs; per outcome class, then per client and phase when the scenario attributes them)</p>
{{if .Latency.Rows}}<table>
<tr><th>histogram</th><th class="num">n</th><th class="num">mean</th><th class="num">p50</th><th class="num">p90</th><th class="num">p99</th><th class="num">p99.9</th><th class="num">max</th><th class="num">wall</th></tr>
{{range .Latency.Rows}}<tr><td>{{if .Kind}}{{.Kind}} {{end}}<code>{{.Name}}</code></td><td class="num">{{.N}}</td><td class="num">{{.Mean}}</td><td class="num">{{.P50}}</td><td class="num">{{.P90}}</td><td class="num">{{.P99}}</td><td class="num">{{.P999}}</td><td class="num">{{.Max}}</td><td class="num">{{.Wall}}</td></tr>
{{end}}</table>{{end}}

{{if .Latency.Overlay}}
<h3>Clean vs corrected decode time <span class="muted">(log time axis; bucket height = share of observations)</span></h3>
<svg width="{{.Latency.Overlay.Width}}" height="{{.Latency.Overlay.Height}}" xmlns="http://www.w3.org/2000/svg">
{{range .Latency.Overlay.Bars}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}" fill-opacity="0.55"><title>{{.Tip}}</title></rect>
{{end}}{{range .Latency.Overlay.Texts}}<text x="{{.X}}" y="{{.Y}}" font-size="11" fill="{{.Fill}}">{{.Text}}</text>
{{end}}</svg>
{{end}}

{{if .Latency.Series}}
<h3>Latency over time <span class="muted">({{.Latency.SeriesNote}}; windowed p99 per interval)</span></h3>
<svg width="{{.Latency.Series.Width}}" height="{{.Latency.Series.Height}}" xmlns="http://www.w3.org/2000/svg">
{{range .Latency.Series.Polys}}<polyline points="{{.Points}}" fill="none" stroke="{{.Stroke}}" stroke-width="1.5"/>
{{end}}{{range .Latency.Series.Texts}}<text x="{{.X}}" y="{{.Y}}" font-size="11" fill="{{.Fill}}">{{.Text}}</text>
{{end}}</svg>
{{end}}
{{end}}

{{if .Results}}
<h2>Campaign outcomes</h2>
{{range .Results}}
<h3>{{.Name}} <span class="muted">({{.Origin}})</span>{{if .Partial}} <span class="partial">PARTIAL</span>{{end}}</h3>
<p>{{.Completed}}/{{.Trials}} trials completed{{if .Skipped}}, {{.Skipped}} restored from checkpoint{{end}}{{if .Panics}}, <span class="partial">{{.Panics}} panics absorbed</span>{{end}} &mdash; {{.Elapsed}}</p>
{{if .Counts}}<table>
<tr><th>outcome</th><th class="num">count</th><th class="num">fraction</th></tr>
{{range .Counts}}<tr><td>{{.Label}}</td><td class="num">{{.N}}</td><td class="num">{{.Pct}}</td></tr>
{{end}}</table>{{end}}
{{end}}
{{end}}

{{if .Journal}}
<h2>Flight recorder</h2>
<p>{{.Journal.Total}} events in <code>{{.Journal.Path}}</code></p>
<table>
<tr><th>kind</th><th class="num">events</th><th class="num">fraction</th></tr>
{{range .Journal.Kinds}}<tr><td>{{.Label}}</td><td class="num">{{.N}}</td><td class="num">{{.Pct}}</td></tr>
{{end}}</table>

{{if .Journal.Timeline}}
<h3>Worker timeline <span class="muted">({{.Journal.Timeline.Total}} total)</span></h3>
<svg width="{{.Journal.Timeline.Width}}" height="{{.Journal.Timeline.Height}}" xmlns="http://www.w3.org/2000/svg">
{{range .Journal.Timeline.Lanes}}<text x="4" y="{{.TextY}}" font-size="11" fill="#555">{{.Label}}</text>
{{end}}{{range .Journal.Timeline.Spans}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}" opacity="0.8"><title>{{.Tip}}</title></rect>
{{end}}{{range .Journal.Timeline.Marks}}<circle cx="{{.CX}}" cy="{{.CY}}" r="3.5" fill="{{.Fill}}"><title>{{.Tip}}</title></circle>
{{end}}</svg>
{{end}}

{{if .Journal.Anomalies}}
<h3>Decode anomalies</h3>
<table>
<tr><th class="num">seq</th><th>time (UTC)</th><th>kind</th><th>source</th><th class="num">worker</th><th class="num">trial</th><th>outcome</th><th>injected</th><th>matched model</th><th class="num">iters</th><th>corrupted words &amp; remainders</th><th>candidate trail</th></tr>
{{range .Journal.Anomalies}}<tr>
<td class="num">{{.Seq}}</td><td>{{.Time}}</td><td>{{.Kind}}</td><td>{{.Source}}</td><td class="num">{{.Worker}}</td><td class="num">{{.Index}}</td><td>{{.Outcome}}</td><td>{{.Injected}}</td><td>{{.Model}}</td><td class="num">{{.Iterations}}</td><td><code>{{.Words}}</code></td>
<td>{{if .Trail}}<details><summary>{{.TrailLen}} steps{{if .TrailDropped}} (+{{.TrailDropped}} dropped){{end}}</summary>
<table><tr><th>model</th><th class="num">trial</th><th class="num">word</th><th class="num">candidate</th><th>MAC</th></tr>
{{range .Trail}}<tr><td>{{.Model}}</td><td class="num">{{.Trial}}</td><td class="num">{{.Word}}</td><td class="num">{{.Candidate}}</td><td>{{if .MACMatch}}match{{else}}&mdash;{{end}}</td></tr>
{{end}}</table></details>{{else}}<span class="muted">&mdash;</span>{{end}}</td>
</tr>
{{end}}</table>
{{end}}

{{if .Journal.Actions}}
<h3>Self-healing actions</h3>
<table>
<tr><th class="num">seq</th><th>time (UTC)</th><th>action</th><th>target</th><th>from</th><th>to</th><th>evidence</th></tr>
{{range .Journal.Actions}}<tr>
<td class="num">{{.Seq}}</td><td>{{.Time}}</td><td>{{.Kind}}</td><td>{{.Target}}</td><td>{{.From}}</td><td>{{.To}}</td><td>{{.Evidence}}</td>
</tr>
{{end}}</table>
{{end}}
{{end}}

{{if .Health}}
<h2>Live health {{if .Health.Page}}<span class="status-page">{{.Health.Status}}</span>{{else}}<span class="status-ok">{{.Health.Status}}</span>{{end}}</h2>
<p class="muted">{{.Health.Events}} events observed over a {{.Health.Window}} window from <code>{{.Health.Origin}}</code>{{if .Health.Dropped}}, {{.Health.Dropped}} dropped under load{{end}}{{if .Health.Overflowed}}, {{.Health.Overflowed}} hits beyond the region cap{{end}}</p>

<h3>SLO burn rates</h3>
<table>
<tr><th>class</th><th class="num">budget/s</th><th class="num">fast burn</th><th class="num">slow burn</th><th>state</th></tr>
{{range .Health.SLOs}}<tr><td>{{.Class}}</td><td class="num">{{.Budget}}</td><td class="num">{{.Fast}}</td><td class="num">{{.Slow}}</td><td>{{if .Hot}}<span class="partial">{{.State}}</span>{{else}}{{.State}}{{end}}</td></tr>
{{end}}</table>

<h3>Error rates</h3>
<table>
<tr><th>class</th><th class="num">fast /s</th><th class="num">slow /s</th><th class="num">ewma</th><th class="num">total</th></tr>
{{range .Health.Classes}}<tr><td>{{.Class}}</td><td class="num">{{.Fast}}</td><td class="num">{{.Slow}}</td><td class="num">{{.EWMA}}</td><td class="num">{{.Total}}</td></tr>
{{end}}</table>

{{if .Health.Signatures}}
<h3>Fault signatures</h3>
<table>
<tr><th>kind</th><th>where</th><th class="num">hits</th><th>last seen (UTC)</th></tr>
{{range .Health.Signatures}}<tr><td><span class="partial">{{.Kind}}</span></td><td>{{.Where}}</td><td class="num">{{.Count}}</td><td>{{.Last}}</td></tr>
{{end}}</table>
{{end}}

<h3>Region heatmap <span class="muted">(hottest first, {{.Health.Regions}} regions tracked)</span></h3>
<table>
<tr><th class="num">region</th><th class="num">first line</th><th class="num">corrected</th><th class="num">due</th><th class="num">sdc</th><th class="num">scrub</th><th class="num">err/s</th><th>heat</th></tr>
{{range .Health.Heatmap}}<tr><td class="num">{{.Region}}</td><td class="num">{{.FirstLine}}</td><td class="num">{{.Corrected}}</td><td class="num">{{.DUE}}</td><td class="num">{{.SDC}}</td><td class="num">{{.Scrub}}</td><td class="num">{{.Rate}}</td><td><span class="heat" style="width: {{.BarPct}}px"></span></td></tr>
{{end}}</table>
{{if .Health.HeatHidden}}<p class="muted">… {{.Health.HeatHidden}} cooler regions not shown</p>{{end}}

{{if .Health.Alerts}}
<h3>Alert timeline</h3>
<table>
<tr><th>time (UTC)</th><th>severity</th><th>kind</th><th>message</th></tr>
{{range .Health.Alerts}}<tr><td>{{.Time}}</td><td>{{if .Page}}<span class="partial">{{.Severity}}</span>{{else}}{{.Severity}}{{end}}</td><td>{{.Kind}}</td><td>{{.Message}}</td></tr>
{{end}}</table>
{{end}}
{{end}}

{{if .Bench}}
<h2>Benchmark snapshot</h2>
<p class="muted">{{.Bench.Config}} &mdash; {{.Bench.GoVersion}} {{.Bench.GOARCH}}, {{.Bench.GeneratedAt}}</p>
<table>
<tr><th>scenario</th><th class="num">ns/op</th><th class="num">allocs/op</th><th class="num">B/op</th><th class="num">iterations</th></tr>
{{range .Bench.Benchmarks}}<tr><td>{{.Name}}</td><td class="num">{{printf "%.1f" .NsPerOp}}</td><td class="num">{{.AllocsPerOp}}</td><td class="num">{{.BytesPerOp}}</td><td class="num">{{.Iterations}}</td></tr>
{{end}}</table>
{{if .Bench.HintTables}}
<h3>Remainder&rarr;hint tables</h3>
<p class="muted">per-codec footprint of the fast or hint tables its decode reads (budget 4 MiB each)</p>
<table>
<tr><th>codec</th><th class="num">bytes</th></tr>
{{range $codec, $bytes := .Bench.HintTables}}<tr><td>{{$codec}}</td><td class="num">{{$bytes}}</td></tr>
{{end}}</table>
{{end}}
{{end}}

{{if .History}}
<h2>Benchmark trend</h2>
<p class="muted">ns/op per scenario, one row per benchsnap -history run</p>
<table>
<tr><th>when</th><th>go</th>{{range .History.Columns}}<th class="num">{{.}}</th>{{end}}</tr>
{{range .History.Rows}}<tr><td>{{.When}}</td><td>{{.Go}}</td>{{range .Cells}}<td class="num">{{.}}</td>{{end}}</tr>
{{end}}</table>
{{end}}

</body>
</html>
`))
