// Package telemetry is the observability substrate of the repo: atomic
// counters, bounded histograms, and labeled counter families that
// publish themselves through the standard library's expvar registry, a
// /debug/vars + /debug/pprof HTTP server, and slog helpers shared by
// every cmd tool.
//
// The package is stdlib-only by design (the container has no external
// metric libraries) and every collector is safe for concurrent use: the
// hot-path operations are single atomic adds, so instrumented code — the
// poly.DecodeLine corrector in particular — pays nothing beyond the
// increments it asks for.
package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use. It implements expvar.Var.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the count for expvar.
func (c *Counter) String() string { return strconv.FormatInt(c.v.Load(), 10) }

// --- LabeledCounter --------------------------------------------------------

// LabeledCounter is a family of counters keyed by a string label — the
// per-fault-model counter shape. The zero value is ready to use. It
// implements expvar.Var, rendering as a JSON object of label → count.
type LabeledCounter struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// get returns the counter for label, creating it on first use.
func (lc *LabeledCounter) get(label string) *Counter {
	lc.mu.RLock()
	c := lc.m[label]
	lc.mu.RUnlock()
	if c != nil {
		return c
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.m == nil {
		lc.m = make(map[string]*Counter)
	}
	if c = lc.m[label]; c == nil {
		c = &Counter{}
		lc.m[label] = c
	}
	return c
}

// Add increments the counter for label by n.
func (lc *LabeledCounter) Add(label string, n int64) { lc.get(label).Add(n) }

// Counter returns the counter for label, creating it on first use. Hot
// paths resolve their labels once through this and Add on the returned
// pointer, skipping the family's lock and map probe per increment.
func (lc *LabeledCounter) Counter(label string) *Counter { return lc.get(label) }

// Value returns the count for label (0 if the label was never used).
func (lc *LabeledCounter) Value(label string) int64 {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	if c := lc.m[label]; c != nil {
		return c.Value()
	}
	return 0
}

// Do calls f for every label in sorted order.
func (lc *LabeledCounter) Do(f func(label string, value int64)) {
	lc.mu.RLock()
	labels := make([]string, 0, len(lc.m))
	for l := range lc.m {
		labels = append(labels, l)
	}
	lc.mu.RUnlock()
	sort.Strings(labels)
	for _, l := range labels {
		f(l, lc.Value(l))
	}
}

// String renders the family as a JSON object for expvar.
func (lc *LabeledCounter) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	lc.Do(func(label string, value int64) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%q: %d", label, value)
	})
	b.WriteByte('}')
	return b.String()
}

// --- Histogram -------------------------------------------------------------

// Histogram counts int64 observations into fixed buckets. Bucket i
// holds observations v <= bounds[i]; a final implicit +Inf bucket
// catches the rest. Observation is one atomic add after a binary
// search, so it is safe and cheap on hot paths. It implements
// expvar.Var, rendering counts, sum, and buckets as JSON.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a histogram from strictly increasing upper
// bounds. It panics on an empty or unsorted bound list (a programming
// error, caught at construction).
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d", i))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns n upper bounds in a geometric series: start,
// start*factor, start*factor^2, ...
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor >= 2, n > 0")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. The bucket search is an open-coded binary
// search: sort.Search's closure call per probe is measurable on the
// instrumented decode path.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// NumBuckets returns the bucket count including the +Inf bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Bound returns bucket i's inclusive upper bound; the last bucket
// reports true for inf.
func (h *Histogram) Bound(i int) (bound int64, inf bool) {
	if i >= len(h.bounds) {
		return 0, true
	}
	return h.bounds[i], false
}

// BucketCount returns the observation count of bucket i.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// String renders the histogram as JSON for expvar:
//
//	{"count": 3, "sum": 17, "buckets": [{"le": 1, "n": 0}, ..., {"le": "+Inf", "n": 1}]}
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"count": %d, "sum": %d, "buckets": [`, h.Count(), h.Sum())
	for i := range h.counts {
		if i > 0 {
			b.WriteString(", ")
		}
		if bound, inf := h.Bound(i); inf {
			fmt.Fprintf(&b, `{"le": "+Inf", "n": %d}`, h.BucketCount(i))
		} else {
			fmt.Fprintf(&b, `{"le": %d, "n": %d}`, bound, h.BucketCount(i))
		}
	}
	b.WriteString("]}")
	return b.String()
}

// --- LabeledHistogram ------------------------------------------------------

// LabeledHistogram is a family of Histograms keyed by a string label,
// all sharing one bucket layout — the per-fault-model latency or
// iteration distribution shape. It implements expvar.Var, rendering as
// a JSON object of label → histogram, and /metrics renders it as a
// labeled Prometheus histogram family.
type LabeledHistogram struct {
	bounds []int64
	mu     sync.RWMutex
	m      map[string]*Histogram
}

// NewLabeledHistogram builds an empty family with the given bucket
// bounds (validated like NewHistogram on first Observe).
func NewLabeledHistogram(bounds ...int64) *LabeledHistogram {
	if len(bounds) == 0 {
		panic("telemetry: labeled histogram needs at least one bucket bound")
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &LabeledHistogram{bounds: b, m: make(map[string]*Histogram)}
}

// get returns the histogram for label, creating it on first use.
func (lh *LabeledHistogram) get(label string) *Histogram {
	lh.mu.RLock()
	h := lh.m[label]
	lh.mu.RUnlock()
	if h != nil {
		return h
	}
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if h = lh.m[label]; h == nil {
		h = NewHistogram(lh.bounds...)
		lh.m[label] = h
	}
	return h
}

// Observe records one value under label.
func (lh *LabeledHistogram) Observe(label string, v int64) { lh.get(label).Observe(v) }

// Do calls f for every labeled histogram in sorted label order.
func (lh *LabeledHistogram) Do(f func(label string, h *Histogram)) {
	lh.mu.RLock()
	labels := make([]string, 0, len(lh.m))
	for l := range lh.m {
		labels = append(labels, l)
	}
	lh.mu.RUnlock()
	sort.Strings(labels)
	for _, l := range labels {
		lh.mu.RLock()
		h := lh.m[l]
		lh.mu.RUnlock()
		f(l, h)
	}
}

// String renders the family as a JSON object for expvar.
func (lh *LabeledHistogram) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	lh.Do(func(label string, h *Histogram) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%q: %s", label, h.String())
	})
	b.WriteByte('}')
	return b.String()
}

// --- expvar publication ----------------------------------------------------

var publishMu sync.Mutex

// Publish registers v in the process-wide expvar registry under name.
// Unlike expvar.Publish it is idempotent: re-publishing an existing
// name is a no-op (first registration wins), so collectors can be wired
// from tests and long-lived tools without panicking.
func Publish(name string, v expvar.Var) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) == nil {
		expvar.Publish(name, v)
	}
}

// --- DecodeMetrics ---------------------------------------------------------

// DecodeMetrics collects the decode-path measurements of §VIII of the
// paper as live counters: outcome counts, per-fault-model trial and hit
// counts, and the iteration-count distribution (the N budget of
// §VIII-C). Decode wall time is not here: the decoder's one clock is a
// latency probe (poly.Config.Latency). A single value may be shared by
// many goroutines and many Codes.
type DecodeMetrics struct {
	Clean         Counter // decodes with zero remainders and a matching MAC
	Corrected     Counter // decodes recovered by a correction trial (or Update-ECC)
	Uncorrectable Counter // DUEs: every candidate of every model exhausted
	ECCFixed      Counter // decodes that rewrote corrupted check bits

	ModelHits   LabeledCounter // fault model that produced the MAC match
	ModelTrials LabeledCounter // correction trials attempted, per fault model

	Iterations *Histogram // trials per non-clean decode
}

// NewDecodeMetrics builds a collector with the default bucket layout:
// iteration buckets doubling 1..32768 (the paper's N_max analysis runs
// to ~4464 for ChipKill+1).
func NewDecodeMetrics() *DecodeMetrics {
	return &DecodeMetrics{Iterations: NewHistogram(ExpBuckets(1, 2, 16)...)}
}

// Publish registers every collector under prefix: prefix.clean,
// prefix.corrected, prefix.uncorrectable, prefix.ecc_fixed,
// prefix.model_hits, prefix.model_trials, and prefix.iterations.
// Idempotent, like Publish.
func (m *DecodeMetrics) Publish(prefix string) {
	Publish(prefix+".clean", &m.Clean)
	Publish(prefix+".corrected", &m.Corrected)
	Publish(prefix+".uncorrectable", &m.Uncorrectable)
	Publish(prefix+".ecc_fixed", &m.ECCFixed)
	Publish(prefix+".model_hits", &m.ModelHits)
	Publish(prefix+".model_trials", &m.ModelTrials)
	Publish(prefix+".iterations", m.Iterations)
}
