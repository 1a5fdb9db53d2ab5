package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"polyecc/internal/latency"
)

// processStart anchors /healthz uptime reporting.
var processStart = time.Now()

// Vitals is the hook a live health engine (internal/health) implements
// to enrich the observability server: /healthz embeds its status and
// vital signs, and /regions serves its per-region error heatmap. The
// telemetry package only defines the contract so it stays dependency-
// free; a nil Vitals leaves the server exactly as before.
type Vitals interface {
	// VitalSigns returns the engine's overall status — "ok", "warn", or
	// "page" — and a JSON-marshalable detail payload for /healthz.
	VitalSigns() (status string, detail any)
	// RegionsPayload returns the JSON-marshalable /regions response:
	// the full health snapshot with the per-region error heatmap.
	RegionsPayload() any
}

// Endpoint is one extra JSON surface a host mounts on the observability
// server — e.g. the memory controller's /memctl action/quarantine
// snapshot. Payload is called per request and its result marshaled as
// indented JSON. The telemetry package stays dependency-free this way:
// it serves any payload without importing the package that produces it.
type Endpoint struct {
	Path    string
	Payload func() any
}

// NewMux builds the observability HTTP mux: /debug/vars (the expvar
// registry, including every collector registered through Publish), the
// /debug/pprof endpoints (CPU/heap/goroutine profiles and execution
// traces), /healthz (liveness: uptime, goroutines, journal pressure),
// /metrics (the expvar registry re-rendered in Prometheus text
// exposition format, so a standard scraper can watch a campaign without
// any extra dependency), /regions, and any extra JSON endpoints.
//
// j may be nil when the process runs without a flight recorder. With a
// live health engine attached as v, /healthz reports the engine's SLO
// status (HTTP 503 while it is at "page", so a load balancer or alerter
// can act on it directly) and /regions serves the per-region error
// heatmap snapshot; a nil v leaves /regions answering 404.
func NewMux(j *Journal, v Vitals, extra ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	for _, ep := range extra {
		payload := ep.Payload
		mux.HandleFunc(ep.Path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(payload()) //nolint:errcheck — best-effort snapshot
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", healthzHandler(j, v))
	mux.HandleFunc("/regions", regionsHandler(v))
	mux.HandleFunc("/metrics", metricsHandler)
	return mux
}

// Health is the /healthz response body.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	Journal       struct {
		Enabled  bool  `json:"enabled"`
		Buffered int   `json:"buffered"`
		Recorded int64 `json:"recorded"`
		Dropped  int64 `json:"dropped"`
	} `json:"journal"`
	// Live carries the attached health engine's vital signs (nil when
	// the process runs without one).
	Live any `json:"health,omitempty"`
}

func healthzHandler(j *Journal, v Vitals) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := Health{
			Status:        "ok",
			UptimeSeconds: time.Since(processStart).Seconds(),
			Goroutines:    runtime.NumGoroutine(),
		}
		h.Journal.Enabled = j.Enabled()
		h.Journal.Buffered = j.Len()
		h.Journal.Recorded = j.Recorded()
		h.Journal.Dropped = j.Dropped()
		code := http.StatusOK
		if v != nil {
			status, detail := v.VitalSigns()
			h.Status = status
			h.Live = detail
			if status == "page" {
				// The SLO burn has crossed the paging threshold: make the
				// endpoint itself unhealthy so anything probing it reacts.
				code = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h) //nolint:errcheck — best-effort health response
	}
}

// regionsHandler serves the health engine's region heatmap snapshot as
// JSON, or a 404 explaining there is no engine attached.
func regionsHandler(v Vitals) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if v == nil {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error": "no health engine attached (run with a flight-recorder journal)"}`)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v.RegionsPayload()) //nolint:errcheck — best-effort snapshot
	}
}

// promName maps an expvar name ("decode.model_hits") to a legal
// Prometheus metric name ("decode_model_hits").
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline get a backslash escape, everything else
// passes through. The caller wraps the result in plain quotes — using
// %q on top of this would double-escape.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writePromHistogram renders one histogram series in exposition format.
// The bucket counts are read exactly once into a cumulative series and
// the _count line is emitted from the same read, so the invariant every
// Prometheus parser checks — le="+Inf" == _count — holds even while the
// histogram is being written concurrently. labels is either empty or a
// rendered `name="value",` prefix for the per-label series of a
// LabeledHistogram.
func writePromHistogram(w http.ResponseWriter, name, labels string, h *Histogram) {
	cum := int64(0)
	for i := 0; i < h.NumBuckets(); i++ {
		cum += h.BucketCount(i)
		if bound, inf := h.Bound(i); inf {
			fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, labels, bound, cum)
		}
	}
	if labels != "" {
		labels = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, labels, h.Sum(), name, labels, cum)
}

// writePromLatency renders a log-linear latency histogram in exposition
// format. The 1024 buckets would bloat every scrape, so only non-empty
// buckets are emitted (cumulative counts are unaffected: an empty
// bucket adds nothing) plus the mandatory le="+Inf". All lines derive
// from one Snapshot, so le="+Inf" == _count holds under concurrent
// writers exactly as for the fixed-bucket histograms.
func writePromLatency(w http.ResponseWriter, name string, h *latency.Hist) {
	var s latency.Snapshot
	h.Snapshot(&s)
	cum := int64(0)
	for i := 0; i < latency.NumBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		_, hi := latency.BucketBound(i)
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, cum)
}

// metricsHandler renders every scrapeable expvar as Prometheus text
// exposition: telemetry Counters as counters, LabeledCounters as
// labeled counters, Histograms and LabeledHistograms as
// cumulative-bucket histograms, and plain expvar Ints/Floats as gauges.
// Composite expvars (memstats, cmdline) are skipped — pprof already
// serves the memory story.
func metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	expvar.Do(func(kv expvar.KeyValue) {
		name := promName(kv.Key)
		switch v := kv.Value.(type) {
		case *Counter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Value())
		case *LabeledCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n", name)
			v.Do(func(label string, value int64) {
				fmt.Fprintf(w, "%s{label=\"%s\"} %d\n", name, promLabel(label), value)
			})
		case *Histogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			writePromHistogram(w, name, "", v)
		case *LabeledHistogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			v.Do(func(label string, h *Histogram) {
				writePromHistogram(w, name, fmt.Sprintf("label=\"%s\",", promLabel(label)), h)
			})
		case *latency.Hist:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			writePromLatency(w, name, v)
		case *expvar.Int:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v.Value())
		case *expvar.Float:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v.Value())
		}
	})
}

// StartServer listens on addr (e.g. ":8080") and serves NewMux(j, v,
// extra...) in a background goroutine for the life of the process. The
// listen happens synchronously so a bad address fails fast; the
// resolved address is returned (useful with ":0").
func StartServer(addr string, j *Journal, v Vitals, extra ...Endpoint) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: NewMux(j, v, extra...)}
	go srv.Serve(ln) //nolint:errcheck — lives until process exit
	return ln.Addr().String(), nil
}
