// Command ecctop is the live terminal dashboard of the health engine:
// it polls a running tool's /regions endpoint (any cmd with
// -metrics-addr and -journal, e.g. `faultinject -scenario stormsoak
// -serve-after`)
// and renders the SLO burn state, per-class error rates, fault
// signatures, the per-region error heatmap, and the alert timeline,
// refreshing in place like top(1).
//
// It also reads offline artifacts: -snapshot renders a
// `faultinject -health-snapshot` JSON file once and exits.
//
// Usage:
//
//	ecctop -addr localhost:8080
//	ecctop -addr-file /tmp/metrics.addr -interval 1s
//	ecctop -snapshot health.json
//	ecctop -addr-file a.txt -once -wait 60s -wait-for page   # scripting: block until the engine pages
//
// -wait-for polls until the engine's overall status matches (ok, warn,
// or page), then renders and exits 0. Failures are distinguished for
// scripts: if -wait elapses while the server was answering, ecctop
// prints the last status it observed and exits 1 (a real timeout); if
// the server never answered at all it exits 2 (unreachable — wrong
// address, or the tool died). `make health-smoke` uses exactly that to
// assert a storm soak pages.
//
// -wait-for also accepts latency conditions against the /latency
// endpoint of a tool running with -latency: `corrected.count>100`
// blocks until the corrected-decode histogram has seen 100
// observations, `clean.p99<250us` until the clean-decode p99 drops
// under 250µs. The form is <name>.<field><op><value> where name is an
// op class (clean, corrected, uncorrectable, encode) or any client or
// phase name, field is count, mean, p50, p90, p99, p999, or max, op is
// < or >, and value is a count or a Go duration. `make latency-smoke`
// uses the count form as its handshake.
//
// When the polled tool serves /latency, every dashboard frame gains a
// latency panel: live percentiles per decode-outcome class (and per
// client/phase when a scenario attributes them), with p99 sparklines
// drawn from the /timeseries window when the recorder is on.
//
// When the polled tool runs the adaptive memory controller (`faultinject
// -scenario memctlsoak`, examples/scrubber -journal), its /memctl
// endpoint feeds an extra panel: scrub escalation level, decided
// fault-model trial order, quarantined lines, retired pages, codec
// migrations, and the recent action log with the evidence that
// triggered each decision.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"polyecc/internal/health"
	"polyecc/internal/latency"
	"polyecc/internal/memctl"
	"polyecc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "", "health engine host:port to poll (its /regions endpoint)")
	addrFile := flag.String("addr-file", "", "read -addr from this file (written by -metrics-addr-file)")
	snapshot := flag.String("snapshot", "", "render this health snapshot JSON file once instead of polling")
	interval := flag.Duration("interval", 2*time.Second, "poll/refresh interval")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
	wait := flag.Duration("wait", 0, "with -wait-for: give up (exit 1) after this long")
	waitFor := flag.String("wait-for", "", "poll until the overall status matches this state (ok, warn, page), then exit 0")
	top := flag.Int("top", 16, "regions shown in the heatmap")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	flag.Parse()
	logger := obs.Init("ecctop")

	if *snapshot != "" {
		buf, err := os.ReadFile(*snapshot)
		if err != nil {
			telemetry.Fatal(logger, "read snapshot", "path", *snapshot, "err", err)
		}
		var s health.Snapshot
		if err := json.Unmarshal(buf, &s); err != nil {
			telemetry.Fatal(logger, "parse snapshot", "path", *snapshot, "err", err)
		}
		fmt.Print(render(&s, *top))
		return
	}

	target := *addr
	if *addrFile != "" {
		target = readAddrFile(*addrFile, *wait)
		if target == "" {
			telemetry.Fatal(logger, "address file never appeared", "path", *addrFile)
		}
	}
	if target == "" {
		telemetry.Fatal(logger, "need -addr, -addr-file, or -snapshot")
	}
	url := "http://" + target + "/regions"
	memctlURL := "http://" + target + "/memctl"
	latURL := "http://" + target + "/latency"
	tsURL := "http://" + target + "/timeseries"

	deadline := time.Time{}
	if *wait > 0 {
		deadline = time.Now().Add(*wait)
	}
	want := strings.ToLower(*waitFor)
	if want != "" && want != "ok" && want != "warn" && want != "page" {
		cond, err := parseLatCond(want)
		if err != nil {
			telemetry.Fatal(logger, "bad -wait-for (not a status or latency condition)",
				"arg", *waitFor, "err", err)
		}
		waitLatency(logger, latURL, tsURL, cond, deadline, *interval, *wait)
		return
	}
	lastStatus := "" // newest successfully observed status
	var lastErr error
	for {
		s, err := fetch(url)
		switch {
		case err != nil && want == "":
			telemetry.Fatal(logger, "poll failed", "url", url, "err", err)
		case err != nil:
			lastErr = err
		case err == nil:
			lastStatus = s.Status.String()
			if want == "" && !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear and home, top(1)-style
			}
			if want == "" || lastStatus == want {
				fmt.Print(render(s, *top))
				if ms := fetchMemctl(memctlURL); ms != nil {
					fmt.Print(renderMemctl(ms))
				}
				if lp := fetchLatency(latURL); lp != nil {
					fmt.Print(renderLatency(lp, fetchTimeseries(tsURL)))
				}
			}
			if want != "" && lastStatus == want {
				return // matched: exit 0 for the scripting handshake
			}
			if *once && want == "" {
				return
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			if want != "" {
				if lastStatus == "" {
					// Never got a single answer: the server is unreachable
					// (wrong address or a dead tool), not a slow state machine.
					logger.Error("server unreachable", "url", url, "waited", *wait, "err", lastErr)
					os.Exit(2)
				}
				telemetry.Fatal(logger, "state never reached",
					"want", want, "last-observed", lastStatus, "waited", *wait)
			}
			return
		}
		time.Sleep(*interval)
	}
}

// readAddrFile waits (up to the -wait budget, at least 5s) for the
// address file a freshly launched tool writes, then returns its content.
func readAddrFile(path string, wait time.Duration) string {
	if wait < 5*time.Second {
		wait = 5 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		if buf, err := os.ReadFile(path); err == nil {
			if s := strings.TrimSpace(string(buf)); s != "" {
				return s
			}
		}
		if time.Now().After(deadline) {
			return ""
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetch pulls and parses one /regions snapshot.
func fetch(url string) (*health.Snapshot, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ecctop: %s returned %s: %s", url, resp.Status, strings.TrimSpace(string(buf)))
	}
	var s health.Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("ecctop: parse %s: %w", url, err)
	}
	return &s, nil
}

// fetchLatency pulls /latency from a tool running with -latency. Tools
// without the collector don't mount it — errors mean no panel.
func fetchLatency(url string) *latency.Payload {
	var p latency.Payload
	if !fetchJSON(url, &p) || len(p.Ops) == 0 {
		return nil
	}
	return &p
}

// fetchTimeseries pulls the recorder window for sparkline trends.
func fetchTimeseries(url string) *telemetry.TimeseriesPayload {
	var p telemetry.TimeseriesPayload
	if !fetchJSON(url, &p) || len(p.Ticks) == 0 {
		return nil
	}
	return &p
}

func fetchJSON(url string, into any) bool {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return json.Unmarshal(buf, into) == nil
}

// latCond is one parsed -wait-for latency condition:
// <name>.<field><op><value>, e.g. corrected.count>100 or clean.p99<250us.
type latCond struct {
	raw    string
	name   string // op class, client, or phase name
	field  string // count, mean, p50, p90, p99, p999, max
	less   bool   // true for <, false for >
	thresh float64
}

func parseLatCond(s string) (*latCond, error) {
	op := strings.IndexAny(s, "<>")
	if op < 0 {
		return nil, fmt.Errorf("no < or > comparator in %q", s)
	}
	dot := strings.LastIndex(s[:op], ".")
	if dot <= 0 {
		return nil, fmt.Errorf("want <name>.<field><op><value>, got %q", s)
	}
	c := &latCond{raw: s, name: s[:dot], field: s[dot+1 : op], less: s[op] == '<'}
	switch c.field {
	case "count", "mean", "p50", "p90", "p99", "p999", "max":
	default:
		return nil, fmt.Errorf("unknown field %q (count, mean, p50, p90, p99, p999, max)", c.field)
	}
	val := s[op+1:]
	if c.field == "count" {
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("count threshold %q: %w", val, err)
		}
		c.thresh = n
	} else {
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("duration threshold %q: %w", val, err)
		}
		c.thresh = float64(d.Nanoseconds())
	}
	return c, nil
}

// met evaluates the condition against one /latency payload, returning
// whether it holds and a human description of the observed value.
func (c *latCond) met(p *latency.Payload) (bool, string) {
	q, ok := p.Ops[c.name]
	if !ok {
		q, ok = p.Clients[c.name]
	}
	if !ok {
		q, ok = p.Phases[c.name]
	}
	if !ok {
		return false, fmt.Sprintf("%s: no such histogram yet", c.name)
	}
	var v float64
	switch c.field {
	case "count":
		v = float64(q.Count)
	case "mean":
		v = q.MeanNs
	case "p50":
		v = q.P50
	case "p90":
		v = q.P90
	case "p99":
		v = q.P99
	case "p999":
		v = q.P999
	case "max":
		v = float64(q.MaxNs)
	}
	observed := fmt.Sprintf("%s.%s=%v", c.name, c.field, v)
	if c.field != "count" {
		observed = fmt.Sprintf("%s.%s=%s", c.name, c.field, time.Duration(v))
	}
	if c.less {
		// A quantile condition on an empty histogram is vacuously 0 < x;
		// require at least one observation so scripts don't race startup.
		return q.Count > 0 && v < c.thresh, observed
	}
	return v > c.thresh, observed
}

// waitLatency is the -wait-for loop for latency conditions, with the
// same exit discipline as the status wait: 0 on match, 1 on timeout
// with the last observed value, 2 when /latency never answered.
func waitLatency(logger *slog.Logger, latURL, tsURL string, cond *latCond,
	deadline time.Time, interval, wait time.Duration) {
	last := ""
	for {
		if p := fetchLatency(latURL); p != nil {
			met, observed := cond.met(p)
			last = observed
			if met {
				fmt.Print(renderLatency(p, fetchTimeseries(tsURL)))
				return
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			if last == "" {
				logger.Error("latency endpoint unreachable", "url", latURL, "waited", wait)
				os.Exit(2)
			}
			telemetry.Fatal(logger, "latency condition never met",
				"want", cond.raw, "last-observed", last, "waited", wait)
		}
		time.Sleep(interval)
	}
}

// renderLatency draws the live latency panel: percentiles per
// decode-outcome class, then per client and phase when a scenario
// attributes them, with p99 sparklines from the recorder window.
func renderLatency(p *latency.Payload, ts *telemetry.TimeseriesPayload) string {
	var b strings.Builder
	b.WriteString("\nDecode latency (µs)\n")
	fmt.Fprintf(&b, "  %-22s %9s %9s %9s %9s %9s %9s  %s\n",
		"", "n", "p50", "p90", "p99", "p99.9", "max", "trend(p99)")
	row := func(kind, name string, q latency.Quantiles) {
		if q.Count == 0 {
			return
		}
		label := name
		if kind != "" {
			label = kind + " " + name
		}
		fmt.Fprintf(&b, "  %-22s %9d %9.1f %9.1f %9.1f %9.1f %9.1f  %s\n",
			label, q.Count, q.P50/1e3, q.P90/1e3, q.P99/1e3, q.P999/1e3,
			float64(q.MaxNs)/1e3, spark(ts, "latency."+name+".p99"))
	}
	for _, cls := range []string{"clean", "corrected", "uncorrectable", "encode"} {
		row("", cls, p.Ops[cls])
	}
	for _, name := range sortedKeys(p.Clients) {
		row("client", name, p.Clients[name])
	}
	for _, name := range sortedKeys(p.Phases) {
		row("phase", name, p.Phases[name])
	}
	return b.String()
}

func sortedKeys(m map[string]latency.Quantiles) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// spark draws the last 24 recorder ticks of one field as a unicode
// sparkline, scaled to the window maximum. Ticks where the field is
// absent (no observations that interval) draw as gaps.
func spark(ts *telemetry.TimeseriesPayload, key string) string {
	if ts == nil {
		return ""
	}
	ticks := ts.Ticks
	if len(ticks) > 24 {
		ticks = ticks[len(ticks)-24:]
	}
	vals := make([]float64, len(ticks))
	present := make([]bool, len(ticks))
	max, any := 0.0, false
	for i, t := range ticks {
		if v, ok := t.Values[key]; ok {
			vals[i], present[i], any = v, true, true
			if v > max {
				max = v
			}
		}
	}
	if !any || max <= 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(ticks))
	for i := range ticks {
		if !present[i] {
			out[i] = ' '
			continue
		}
		idx := int(vals[i] / max * float64(len(ramp)-1))
		out[i] = ramp[idx]
	}
	return string(out)
}

// fetchMemctl pulls the controller state of a tool running the adaptive
// memory controller. Tools without one don't mount /memctl — any error
// (404 included) just means there is no panel to draw.
func fetchMemctl(url string) *memctl.Snapshot {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var s memctl.Snapshot
	if json.Unmarshal(buf, &s) != nil {
		return nil
	}
	return &s
}

// renderMemctl draws the self-healing actions/quarantine panel.
func renderMemctl(s *memctl.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nSelf-healing controller  |  scrub level %d (interval %s)  |  actions: %d\n",
		s.ScrubLevel, s.ScrubInterval, s.ActionsTotal)
	if len(s.ModelOrder) > 0 {
		fmt.Fprintf(&b, "  decoder trial order: %s\n", strings.Join(s.ModelOrder, " > "))
	}
	if len(s.Quarantined) > 0 {
		parts := make([]string, 0, len(s.Quarantined))
		for _, q := range s.Quarantined {
			parts = append(parts, fmt.Sprintf("%d (strike %d)", q.Line, q.Strikes))
		}
		fmt.Fprintf(&b, "  quarantined lines: %s\n", strings.Join(parts, ", "))
	}
	if len(s.RetiredPages) > 0 {
		parts := make([]string, len(s.RetiredPages))
		for i, p := range s.RetiredPages {
			parts[i] = fmt.Sprintf("%d", p)
		}
		fmt.Fprintf(&b, "  retired pages: %s\n", strings.Join(parts, ", "))
	}
	for _, m := range s.Migrations {
		fmt.Fprintf(&b, "  region %d re-encoded with %s\n", m.Region, m.Codec)
	}
	if len(s.Recent) > 0 {
		b.WriteString("  recent actions (newest last)\n")
		tail := s.Recent
		if len(tail) > 8 {
			tail = tail[len(tail)-8:]
		}
		for _, a := range tail {
			evidence := a.Evidence
			if len(evidence) > 72 {
				evidence = evidence[:69] + "..."
			}
			fmt.Fprintf(&b, "  %s  %-15s %-10s %s\n",
				time.Unix(0, a.TimeNs).UTC().Format("15:04:05"), a.Kind, a.Target(), evidence)
		}
	}
	return b.String()
}

// render draws one dashboard frame.
func render(s *health.Snapshot, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ecctop — live ECC health  |  status: %s  |  events: %d  |  regions: %d  |  window: %.0fs\n",
		strings.ToUpper(s.Status.String()), s.Events, s.RegionsTotal, s.WindowSeconds)
	if s.SubDropped > 0 {
		fmt.Fprintf(&b, "  (engine subscription dropped %d events under load)\n", s.SubDropped)
	}

	b.WriteString("\nSLO burn rates\n")
	fmt.Fprintf(&b, "  %-10s %-12s %10s %10s %8s\n", "class", "budget/s", "fast burn", "slow burn", "state")
	for _, t := range s.SLOs {
		fmt.Fprintf(&b, "  %-10s %-12g %9.1fx %9.1fx %8s\n",
			t.Class, t.BudgetPerSec, t.BurnFast, t.BurnSlow, strings.ToUpper(t.State.String()))
	}

	b.WriteString("\nError rates (events/s)\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %12s\n", "class", "fast", "slow", "ewma/s", "total")
	for _, class := range []string{"corrected", "due", "sdc", "scrub"} {
		c := s.Classes[class]
		fmt.Fprintf(&b, "  %-10s %10.2f %10.2f %10.2f %12d\n",
			class, c.RateFast, c.RateSlow, c.EWMA, c.Total)
	}

	if len(s.Signatures) > 0 {
		b.WriteString("\nFault signatures\n")
		for _, sig := range s.Signatures {
			switch sig.Kind {
			case "rowhammer-storm":
				fmt.Fprintf(&b, "  ⚠ rowhammer-storm   aggressor row %-6d %6d clustered hits\n", sig.Row, sig.Count)
			case "repeat-offender":
				fmt.Fprintf(&b, "  ⚠ repeat-offender   line %-13d %6d hits (trending permanent)\n", sig.Line, sig.Count)
			case "scrub-recurrence":
				fmt.Fprintf(&b, "  ⚠ scrub-recurrence  region %-11d %6d patrol findings\n", sig.Region, sig.Count)
			default:
				fmt.Fprintf(&b, "  ⚠ %-17s count %d\n", sig.Kind, sig.Count)
			}
		}
	}

	b.WriteString("\nRegion heatmap (hottest first)\n")
	fmt.Fprintf(&b, "  %-8s %-11s %9s %6s %5s %6s %9s  %s\n",
		"region", "first line", "corrected", "due", "sdc", "scrub", "err/s", "")
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
	shown := regions
	if len(shown) > top {
		shown = shown[:top]
	}
	for _, r := range shown {
		n := r.Corrected + r.DUE + r.SDC
		bar := strings.Repeat("█", int(n*24/maxErr))
		fmt.Fprintf(&b, "  %-8d %-11d %9d %6d %5d %6d %9.2f  %s\n",
			r.Region, r.FirstLine, r.Corrected, r.DUE, r.SDC, r.Scrub, r.RateSlow, bar)
	}
	if hidden := len(regions) - len(shown); hidden > 0 {
		fmt.Fprintf(&b, "  … %d cooler regions not shown\n", hidden)
	}

	if len(s.Alerts) > 0 {
		b.WriteString("\nAlert timeline (newest last)\n")
		tail := s.Alerts
		if len(tail) > 8 {
			tail = tail[len(tail)-8:]
		}
		for _, a := range tail {
			fmt.Fprintf(&b, "  %s  %-5s %-18s %s\n",
				time.Unix(0, a.TimeNs).UTC().Format("15:04:05"), strings.ToUpper(a.Severity), a.Kind, a.Message)
		}
	}
	return b.String()
}
