package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"polyecc/internal/latency"
)

func tickAt(r *Recorder, sec int64) Tick {
	return r.SampleNow(time.Unix(sec, 0))
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(time.Second, 4)
	var c Counter
	r.Counter("trials", &c)
	for i := int64(1); i <= 10; i++ {
		c.Add(1)
		tickAt(r, i)
	}
	ticks := r.Ticks()
	if len(ticks) != 4 {
		t.Fatalf("retained %d ticks, want capacity 4", len(ticks))
	}
	// Chronological order and exactly the last four samples survive.
	for i, tk := range ticks {
		wantT := time.Unix(int64(7+i), 0).UnixNano()
		if tk.TimeNs != wantT {
			t.Fatalf("tick %d at %d, want %d", i, tk.TimeNs, wantT)
		}
		if got := tk.Values["trials"]; got != float64(7+i) {
			t.Fatalf("tick %d trials=%v want %d", i, got, 7+i)
		}
	}
	pl := r.Payload()
	if pl.Total != 10 || pl.Dropped != 6 || pl.Capacity != 4 {
		t.Fatalf("payload accounting wrong: %+v", pl)
	}
}

// The latency source must be windowed: a burst of slow observations in
// one interval must not leak into the next interval's percentiles.
func TestRecorderWindowedLatency(t *testing.T) {
	r := NewRecorder(time.Second, 16)
	h := latency.New()
	r.Latency("clean", h)

	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	t1 := tickAt(r, 1)
	if got := t1.Values["clean.count"]; got != 100 {
		t.Fatalf("window 1 count=%v want 100", got)
	}
	if p99 := t1.Values["clean.p99"]; p99 > 200 {
		t.Fatalf("window 1 p99=%v, want ~100ns", p99)
	}

	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	t2 := tickAt(r, 2)
	if got := t2.Values["clean.count"]; got != 100 {
		t.Fatalf("window 2 count=%v want 100 (windowed, not cumulative)", got)
	}
	if p50 := t2.Values["clean.p50"]; p50 < 900_000 {
		t.Fatalf("window 2 p50=%v, want ~1ms — old fast samples leaked in", p50)
	}
	if total := t2.Values["clean.total"]; total != 200 {
		t.Fatalf("cumulative total=%v want 200", total)
	}

	// An idle window has a count of zero and no percentile fields.
	t3 := tickAt(r, 3)
	if got := t3.Values["clean.count"]; got != 0 {
		t.Fatalf("idle window count=%v want 0", got)
	}
	if _, ok := t3.Values["clean.p50"]; ok {
		t.Fatal("idle window must omit percentiles")
	}
}

func TestRecorderPersistAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeseries.jsonl")
	m := NewManifest("recorder-test")

	r1 := NewRecorder(time.Second, 8)
	var c Counter
	r1.Counter("n", &c)
	if err := r1.Persist(path, m); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		c.Add(1)
		tickAt(r1, i)
	}
	r1.Stop()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// Header + 3 ticks + the final Stop sample.
	if len(lines) != 5 {
		t.Fatalf("file has %d lines, want 5:\n%s", len(lines), raw)
	}
	var hdr persistHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Manifest == nil {
		t.Fatalf("first line is not a manifest header: %q (%v)", lines[0], err)
	}
	if hdr.Manifest.Tool != "recorder-test" {
		t.Fatalf("manifest tool=%q", hdr.Manifest.Tool)
	}

	// Resume: the tail is reloaded into the ring and appends continue.
	r2 := NewRecorder(time.Second, 8)
	var c2 Counter
	r2.Counter("n", &c2)
	if err := r2.Persist(path, NewManifest("recorder-test")); err != nil {
		t.Fatal(err)
	}
	if got := len(r2.Ticks()); got != 4 {
		t.Fatalf("resumed ring has %d ticks, want 4", got)
	}
	c2.Add(42)
	tickAt(r2, 10)
	r2.Stop()

	raw2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines2 := strings.Split(strings.TrimSpace(string(raw2)), "\n")
	if len(lines2) != 7 { // one header only, old ticks kept, 2 new ticks
		t.Fatalf("resumed file has %d lines, want 7:\n%s", len(lines2), raw2)
	}
	if strings.Count(string(raw2), `"manifest"`) != 1 {
		t.Fatal("resume must not write a second manifest header")
	}
}

func TestRecorderResumeOverCapacityKeepsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ts.jsonl")
	r1 := NewRecorder(time.Second, 32)
	var c Counter
	r1.Counter("n", &c)
	if err := r1.Persist(path, nil); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		c.Add(1)
		tickAt(r1, i)
	}
	r1.Stop()

	r2 := NewRecorder(time.Second, 4) // smaller ring than the file
	if err := r2.Persist(path, nil); err != nil {
		t.Fatal(err)
	}
	ticks := r2.Ticks()
	if len(ticks) != 4 {
		t.Fatalf("resumed %d ticks into capacity-4 ring", len(ticks))
	}
	if ticks[3].Values["n"] != 10 {
		t.Fatalf("resume did not keep the newest tail: %+v", ticks)
	}
}

func TestRecorderCorruptFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"t_ns\":1,\"v\":{}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(time.Second, 4)
	if err := r.Persist(path, nil); err == nil {
		t.Fatal("corrupt recorder file must fail Persist")
	}
}

// /latency and /timeseries are mounted as generic extra endpoints; the
// bodies must be the collector payload and the recorder window.
func TestLatencyAndTimeseriesEndpoints(t *testing.T) {
	coll := latency.NewCollector()
	p := coll.Probe()
	for i := 0; i < 50; i++ {
		p.Observe(latency.OpDecodeClean, 300*time.Nanosecond)
	}
	coll.Client("tenant-a").Observe(2 * time.Microsecond)

	rec := NewRecorder(time.Second, 8)
	rec.Latency("clean", coll.Op(latency.OpDecodeClean))
	tickAt(rec, 5)

	mux := NewMux(nil, nil,
		Endpoint{Path: "/latency", Payload: func() any { return coll.Payload() }},
		Endpoint{Path: "/timeseries", Payload: func() any { return rec.Payload() }},
	)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lat latency.Payload
	if err := json.NewDecoder(resp.Body).Decode(&lat); err != nil {
		t.Fatal(err)
	}
	if lat.Ops["clean"].Count != 50 || lat.Ops["clean"].P99 <= 0 {
		t.Fatalf("/latency clean digest wrong: %+v", lat.Ops["clean"])
	}
	if lat.Clients["tenant-a"].Count != 1 {
		t.Fatalf("/latency clients wrong: %+v", lat.Clients)
	}

	resp2, err := srv.Client().Get(srv.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ts TimeseriesPayload
	if err := json.NewDecoder(resp2.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Ticks) != 1 || ts.Ticks[0].Values["clean.count"] != 50 {
		t.Fatalf("/timeseries body wrong: %+v", ts)
	}
	if ts.IntervalNs != int64(time.Second) {
		t.Fatalf("interval_ns=%d", ts.IntervalNs)
	}
}

// The latency_* series must satisfy the same strict exposition contract
// as the fixed-bucket histograms: parsable lines, cumulative monotonic
// buckets, le="+Inf" == _count — via the same strict parser.
func TestMetricsLatencySeriesRoundTrip(t *testing.T) {
	coll := latency.NewCollector()
	p := coll.Probe()
	for i := 0; i < 40; i++ {
		p.Observe(latency.OpDecodeClean, time.Duration(200+i*13)*time.Nanosecond)
	}
	for i := 0; i < 7; i++ {
		p.Observe(latency.OpDecodeCorrected, time.Duration(i)*time.Millisecond)
	}
	coll.Publish("rt_lat")

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

	buckets := map[string][]promSeries{}
	counts := map[string]float64{}
	sums := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "rt_lat_") {
			continue
		}
		s := parsePromLine(t, line)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			key := strings.TrimSuffix(s.name, "_bucket")
			buckets[key] = append(buckets[key], s)
		case strings.HasSuffix(s.name, "_count"):
			counts[strings.TrimSuffix(s.name, "_count")] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			sums[strings.TrimSuffix(s.name, "_sum")] = s.value
		}
	}

	for key, wantCount := range map[string]float64{"rt_lat_clean": 40, "rt_lat_corrected": 7} {
		bs := buckets[key]
		if len(bs) == 0 {
			t.Fatalf("no bucket series for %s", key)
		}
		prevCum, prevLe := -1.0, int64(-1)
		for _, b := range bs {
			if b.value < prevCum {
				t.Errorf("%s buckets not cumulative: %v after %v", key, b.value, prevCum)
			}
			prevCum = b.value
			if le := b.labels["le"]; le != "+Inf" {
				bound, err := strconv.ParseInt(le, 10, 64)
				if err != nil {
					t.Fatalf("%s: non-numeric le=%q", key, le)
				}
				if bound <= prevLe {
					t.Errorf("%s: le bounds not increasing: %d after %d", key, bound, prevLe)
				}
				prevLe = bound
			}
		}
		last := bs[len(bs)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("%s last bucket le=%q, want +Inf", key, last.labels["le"])
		}
		if counts[key] != wantCount || last.value != wantCount {
			t.Errorf("%s count=%v +Inf=%v want %v", key, counts[key], last.value, wantCount)
		}
		if sums[key] <= 0 {
			t.Errorf("%s sum=%v, want > 0", key, sums[key])
		}
	}
	// Empty op classes still expose a valid series (just +Inf == 0).
	if bs := buckets["rt_lat_encode"]; len(bs) != 1 || bs[0].labels["le"] != "+Inf" || bs[0].value != 0 {
		t.Errorf("empty encode series wrong: %+v", bs)
	}
}

func TestRecorderStartStop(t *testing.T) {
	r := NewRecorder(10*time.Millisecond, 64)
	var c Counter
	c.Add(3)
	r.Counter("n", &c)
	r.Start()
	time.Sleep(35 * time.Millisecond)
	r.Stop()
	ticks := r.Ticks()
	if len(ticks) == 0 {
		t.Fatal("cadence loop recorded no ticks")
	}
	if got := ticks[len(ticks)-1].Values["n"]; got != 3 {
		t.Fatalf("sampled counter=%v want 3", got)
	}
}
