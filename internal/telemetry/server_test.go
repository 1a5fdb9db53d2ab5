package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHealthzReportsJournalPressure(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 40; i++ {
		j.Record(Event{Kind: KindTrialOutcome, Index: i})
	}
	srv := httptest.NewServer(NewMux(j, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Goroutines <= 0 || h.UptimeSeconds < 0 {
		t.Fatalf("implausible health: %+v", h)
	}
	if !h.Journal.Enabled {
		t.Fatal("journal must report enabled")
	}
	if h.Journal.Recorded != 40 || h.Journal.Dropped != 40-int64(h.Journal.Buffered) {
		t.Fatalf("journal pressure wrong: %+v", h.Journal)
	}
}

func TestHealthzWithoutJournal(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Journal.Enabled {
		t.Fatal("nil journal must report disabled")
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	var c Counter
	c.Add(5)
	Publish("server_test.trials", &c)
	var lc LabeledCounter
	lc.Add("sdc", 3)
	lc.Add("due", 1)
	Publish("server_test.outcomes", &lc)
	h := NewHistogram(1000, 10000, 100000)
	h.Observe(int64(3 * time.Microsecond))
	Publish("server_test.latency_ns", h)

	srv := httptest.NewServer(NewMux(nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE server_test_trials counter",
		"server_test_trials 5",
		`server_test_outcomes{label="sdc"} 3`,
		`server_test_outcomes{label="due"} 1`,
		"# TYPE server_test_latency_ns histogram",
		`server_test_latency_ns_bucket{le="+Inf"}`,
		"server_test_latency_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "server_test.trials") {
		t.Error("dots must be sanitized out of metric names")
	}
}

func TestDebugVarsStillServed(t *testing.T) {
	var c Counter
	c.Add(2)
	Publish("server_test.debugvars", &c)
	srv := httptest.NewServer(NewMux(nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if string(vars["server_test.debugvars"]) != "2" {
		t.Fatalf("debug/vars missing counter: %s", vars["server_test.debugvars"])
	}
}

// promSeries is one parsed exposition sample: metric name, labels, and
// value. The test parser below is deliberately strict — it accepts only
// what the format allows, so any escaping or cumulativity bug in the
// /metrics renderer fails the round trip the way a real scraper would.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromLine parses `name{k="v",...} value` (labels optional),
// honoring backslash escapes inside quoted label values.
func parsePromLine(t *testing.T, line string) promSeries {
	t.Helper()
	s := promSeries{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("unparsable metric line %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest[0] != '}' {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				t.Fatalf("bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("unterminated label value in %q", line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					// The three legal escapes; anything else is malformed.
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("illegal escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if c == '\n' {
					t.Fatalf("raw newline inside label value in %q", line)
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			if rest[0] == ',' {
				rest = rest[1:]
			}
		}
		rest = rest[1:]
	}
	var err error
	if s.value, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return s
}

// The /metrics endpoint must emit text a Prometheus scraper can ingest:
// label values with quotes, backslashes, and newlines round-trip through
// the escaping, histogram buckets are cumulative and monotonic, and the
// le="+Inf" bucket equals _count — for labeled histograms per label.
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	nasty := `path\to "quoted"` + "\nsecond line"
	var lc LabeledCounter
	lc.Add(nasty, 7)
	lc.Add("plain", 2)
	Publish("rt_test.outcomes", &lc)

	lh := NewLabeledHistogram(10, 100, 1000)
	for i := 0; i < 50; i++ {
		lh.Observe("modelA", int64(i*40))
	}
	lh.Observe(nasty, 5)
	Publish("rt_test.iters", lh)

	h := NewHistogram(1, 2, 4, 8)
	for i := int64(0); i < 9; i++ {
		h.Observe(i)
	}
	Publish("rt_test.plainhist", h)

	srv := httptest.NewServer(NewMux(nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Escaped newlines keep every sample on one physical line, so a line
	// scan is the correct framing — a raw newline would shear a sample in
	// two and fail parsing below.
	counters := map[string]map[string]float64{} // name -> label -> value
	buckets := map[string][]promSeries{}        // name+labels-minus-le -> bucket series in emission order
	counts := map[string]float64{}              // name+labels -> _count value
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "rt_test_") {
			continue
		}
		s := parsePromLine(t, line)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			key := strings.TrimSuffix(s.name, "_bucket") + "|" + s.labels["label"]
			buckets[key] = append(buckets[key], s)
		case strings.HasSuffix(s.name, "_count"):
			counts[strings.TrimSuffix(s.name, "_count")+"|"+s.labels["label"]] = s.value
		case strings.HasSuffix(s.name, "_sum"):
		default:
			if counters[s.name] == nil {
				counters[s.name] = map[string]float64{}
			}
			counters[s.name][s.labels["label"]] = s.value
		}
	}

	// Label escaping round trip: the nasty label comes back verbatim.
	if got := counters["rt_test_outcomes"][nasty]; got != 7 {
		t.Errorf("nasty label lost in round trip: got %v, have labels %v",
			got, counters["rt_test_outcomes"])
	}
	if got := counters["rt_test_outcomes"]["plain"]; got != 2 {
		t.Errorf("plain label = %v, want 2", got)
	}

	// Histogram contract: cumulative, monotonic, +Inf == _count. The
	// plain histogram and every label series of the labeled one.
	wantSeries := []string{"rt_test_plainhist|", "rt_test_iters|modelA", "rt_test_iters|" + nasty}
	for _, key := range wantSeries {
		bs := buckets[key]
		if len(bs) == 0 {
			t.Errorf("no buckets for series %q", key)
			continue
		}
		prev := -1.0
		for _, b := range bs {
			if b.value < prev {
				t.Errorf("series %q buckets not cumulative: %v after %v", key, b.value, prev)
			}
			prev = b.value
		}
		last := bs[len(bs)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("series %q last bucket le=%q, want +Inf", key, last.labels["le"])
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("series %q has no _count", key)
		} else if last.value != cnt {
			t.Errorf("series %q +Inf bucket %v != _count %v", key, last.value, cnt)
		}
	}
	if got := counts["rt_test_plainhist|"]; got != 9 {
		t.Errorf("plainhist _count = %v, want 9", got)
	}
	if got := counts["rt_test_iters|modelA"]; got != 50 {
		t.Errorf("iters{modelA} _count = %v, want 50", got)
	}
}
