package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// Counters must be exact under concurrent increments (run with -race).
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if c.String() != fmt.Sprint(workers*perWorker) {
		t.Fatalf("String() = %q", c.String())
	}
}

// Bucket boundaries are inclusive upper bounds, with a final +Inf
// bucket; count and sum track every observation.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []int64{0, 1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	want := []int64{2, 1, 2, 1} // le1:{0,1} le2:{2} le4:{3,4} inf:{5}
	if h.NumBuckets() != len(want) {
		t.Fatalf("buckets = %d, want %d", h.NumBuckets(), len(want))
	}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 || h.Sum() != 15 {
		t.Fatalf("count/sum = %d/%d, want 6/15", h.Count(), h.Sum())
	}
	if _, inf := h.Bound(3); !inf {
		t.Fatal("last bucket should be +Inf")
	}
	if b, inf := h.Bound(1); inf || b != 2 {
		t.Fatalf("Bound(1) = %d,%v", b, inf)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8)...)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(w*64 + i%128))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	var total int64
	for i := 0; i < h.NumBuckets(); i++ {
		total += h.BucketCount(i)
	}
	if total != 4000 {
		t.Fatalf("bucket total = %d, want 4000", total)
	}
}

// The expvar rendering must be valid JSON with the documented shape.
func TestHistogramString(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(0)
	h.Observe(7)
	h.Observe(99)
	var out struct {
		Count   int64 `json:"count"`
		Sum     int64 `json:"sum"`
		Buckets []struct {
			LE json.RawMessage `json:"le"`
			N  int64           `json:"n"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(h.String()), &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", h.String(), err)
	}
	if out.Count != 3 || out.Sum != 106 || len(out.Buckets) != 3 {
		t.Fatalf("unexpected render: %q", h.String())
	}
	if string(out.Buckets[2].LE) != `"+Inf"` || out.Buckets[2].N != 1 {
		t.Fatalf("+Inf bucket wrong: %q", h.String())
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { NewHistogram() },
		"unsorted": func() { NewHistogram(4, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestLabeledCounter(t *testing.T) {
	var lc LabeledCounter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				lc.Add("SSC", 1)
				lc.Add("ChipKill", 2)
			}
		}()
	}
	wg.Wait()
	if lc.Value("SSC") != 2000 || lc.Value("ChipKill") != 4000 {
		t.Fatalf("values = %d/%d", lc.Value("SSC"), lc.Value("ChipKill"))
	}
	if lc.Value("never") != 0 {
		t.Fatal("unused label should read 0")
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(lc.String()), &m); err != nil {
		t.Fatalf("invalid JSON %q: %v", lc.String(), err)
	}
	if m["SSC"] != 2000 || m["ChipKill"] != 4000 {
		t.Fatalf("rendered %q", lc.String())
	}
	var order []string
	lc.Do(func(label string, _ int64) { order = append(order, label) })
	if len(order) != 2 || order[0] != "ChipKill" || order[1] != "SSC" {
		t.Fatalf("Do order = %v, want sorted", order)
	}
}

// Publish must be idempotent: the second registration of a name is a
// no-op instead of the expvar.Publish panic.
func TestPublishIdempotent(t *testing.T) {
	var a, b Counter
	a.Add(7)
	Publish("telemetry_test.idempotent", &a)
	Publish("telemetry_test.idempotent", &b) // would panic via expvar.Publish
	if got := expvar.Get("telemetry_test.idempotent").String(); got != "7" {
		t.Fatalf("registered var = %q, want first registration (7)", got)
	}
}

func TestDecodeMetricsPublish(t *testing.T) {
	m := NewDecodeMetrics()
	m.Clean.Add(3)
	m.ModelHits.Add("SSC", 1)
	m.Iterations.Observe(5)
	m.Publish("telemetry_test.decode")
	m.Publish("telemetry_test.decode") // idempotent
	if got := expvar.Get("telemetry_test.decode.clean"); got == nil || got.String() != "3" {
		t.Fatalf("clean = %v", got)
	}
	for _, name := range []string{"corrected", "uncorrectable", "ecc_fixed",
		"model_hits", "model_trials", "iterations"} {
		if expvar.Get("telemetry_test.decode."+name) == nil {
			t.Errorf("collector %s not published", name)
		}
	}
	// Decode timing belongs to the latency probe; the counter collector
	// publishes no clock.
	if expvar.Get("telemetry_test.decode.latency_ns") != nil {
		t.Error("decode metrics published a latency_ns histogram")
	}
	if m.Iterations.Count() != 1 || m.Iterations.Sum() != 5 {
		t.Fatalf("iterations count/sum = %d/%d, want 1/5", m.Iterations.Count(), m.Iterations.Sum())
	}
}

// The observability server must serve the expvar registry and the pprof
// index.
func TestStartServer(t *testing.T) {
	var c Counter
	c.Add(42)
	Publish("telemetry_test.server", &c)
	addr, err := StartServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars["telemetry_test.server"] != float64(42) {
		t.Fatalf("published counter missing from /debug/vars: %v", vars["telemetry_test.server"])
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index missing goroutine profile")
	}
	if _, err := StartServer(addr, nil, nil); err == nil {
		t.Fatal("second listen on same address should fail")
	}
}
