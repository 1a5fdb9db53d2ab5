package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. calls > 1 marks a batch: calls shorter than
// about a microsecond are timed together, since one clock read costs
// tens of nanoseconds.
type span struct {
	name       string
	op         int64 // the op (trial, line tile, decode, replayed trial) the call served
	parent     int32 // index of the enclosing span, -1 for a root
	calls      int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory on one goroutine. A nil *tracer is the
// tracing-off mode: every method is a no-op, so a mirror loop runs the
// same calls with and without spans and the difference is the tracing
// overhead.
type tracer struct {
	label string
	epoch time.Time
	spans []span
	open  []int32
	op    int64
	self  []int64 // self times, computed once the spans are complete
}

func newTracer(label string) *tracer {
	return &tracer{label: label, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setOp sets the op id the next spans belong to.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span covering calls calls and returns its id.
func (t *tracer) begin(name string, calls int) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, calls: int32(calls)})
	t.open = append(t.open, id)
	t.spans[id].start = int64(time.Since(t.epoch))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// rename relabels a span once its outcome is known (a decode's class).
func (t *tracer) rename(id int32, name string) {
	if t != nil {
		t.spans[id].name = name
	}
}

// selfTimes returns every span's duration minus the time its direct
// children cover. Children of one span never overlap (one goroutine).
func (t *tracer) selfTimes() []int64 {
	if len(t.self) == len(t.spans) {
		return t.self
	}
	t.self = make([]int64, len(t.spans))
	for i, s := range t.spans {
		t.self[i] += s.end - s.start
		if s.parent >= 0 {
			t.self[s.parent] -= s.end - s.start
		}
	}
	return t.self
}

// perCall returns the per-call self time in ns of every span named name,
// one sample per span.
func (t *tracer) perCall(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, float64(self[i])/float64(s.calls))
		}
	}
	return out
}

// layerSelfNs sums the self time of the spans from index from on, except
// the mirror loop's own per-op spans (named "op.*"): the time the traced
// layers took.
func (t *tracer) layerSelfNs(from int) int64 {
	self := t.selfTimes()
	var sum int64
	for i := from; i < len(t.spans); i++ {
		if !strings.HasPrefix(t.spans[i].name, "op.") {
			sum += self[i]
		}
	}
	return sum
}

// layerValue is one per-layer metric with its sample count.
type layerValue struct {
	metric
	samples int64
}

// layerMetrics collects the per-layer metrics of a traced run. The
// requested workload's mirror runs first; the other workloads' mirrors
// then fill in only the metrics it left unset, so a layer the workload
// exercises is always reported from the workload's own traffic.
type layerMetrics struct {
	vals      map[string]layerValue
	source    map[string]string
	current   string
	ck        *checker
	attempted int64
	tracers   []*tracer
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{vals: map[string]layerValue{}, source: map[string]string{}, ck: &checker{}}
}

// set records a metric unless an earlier mirror already did.
func (lm *layerMetrics) set(name string, value float64, unit string, samples int64) {
	if _, ok := lm.vals[name]; ok {
		return
	}
	lm.vals[name] = layerValue{metric{value, unit}, samples}
	lm.source[name] = lm.current
}

// quantiles sets name_p50 and name_p99 (with suffix after the
// percentile, e.g. ".ssc") from samples.
func (lm *layerMetrics) quantiles(base, suffix, unit string, samples []float64, ps ...int) {
	for _, p := range ps {
		if len(samples) == 0 {
			continue
		}
		lm.set(fmt.Sprintf("%s_p%d%s", base, p, suffix), quantile(samples, float64(p)/100), unit, int64(len(samples)))
	}
}

// spanQuantiles sets per-call percentiles of a span name.
func (lm *layerMetrics) spanQuantiles(t *tracer, spanName, base, suffix string, ps ...int) {
	lm.quantiles(base, suffix, "ns", t.perCall(spanName), ps...)
}

// keep retains a tracer's spans for the trace file.
func (lm *layerMetrics) keep(t *tracer) { lm.tracers = append(lm.tracers, t) }

// modelSuffix maps a poly fault model label to its metric suffix.
var modelSuffix = map[string]string{
	"ChipKill": "chipkill", "SSC": "ssc", "DEC": "dec", "BF+BF": "bfbf", "ChipKill+1": "chipkill1",
}

// perLayerNames is every per-layer metric a traced run reports; it is
// the per_layer list of BENCHMARK.json.
func perLayerNames() []string {
	names := []string{
		"campaign.trial_rng_ns_p50", "campaign.trial_rng_ns_p99", "campaign.allocs_per_trial",
		"scenario.engine_ns_per_op",
		"faults.inject_ns_p50", "faults.inject_ns_p99", "rowhammer.mask_ns_p50",
		"dram.from_burst_ns_p50", "dram.from_burst_ns_p99", "dram.to_burst_ns_p50", "dram.read_burst_ns_p50",
		"residue.remainder_ns_per_word", "poly.decode_tile_ns_p50",
		"poly.decode_clean_ns_p50", "poly.decode_clean_ns_p99", "poly.decode_due_ns_p50",
		"poly.cross_model_trial_share", "poly.encode_ns_p50",
		"mac.evals_per_op", "mac.sum_ns_p50",
		"scrub.sweep_ms_p50", "scrub.corrected_share", "scrub.rewrites_per_sweep",
		"telemetry.journal_record_ns_p50", "telemetry.events_per_op",
		"memctl.observe_ns_p50", "memctl.tick_ns_p50", "memctl.actions_total", "memctl.blocked_share",
		"trace.overhead_share",
	}
	for _, m := range []string{"chipkill", "ssc", "dec", "bfbf", "chipkill1"} {
		names = append(names,
			"poly.decode_corrected_ns_p50."+m, "poly.decode_corrected_ns_p99."+m,
			"poly.iters_mean."+m, "poly.iters_p99."+m)
	}
	for _, c := range tableVCodes {
		names = append(names, "linecode.decode_ns_p50."+c, "linecode.decode_ns_p99."+c, "linecode.allocs_per_decode."+c)
	}
	for _, c := range constructedCodes {
		names = append(names, "linecode.new_ms."+c)
	}
	return names
}

// runTraced is the traced run of one workload: its own mirror first
// (with the untraced reference, tracing-off and traced passes), then the
// other workloads' mirrors at minimum size for the layers it never
// reaches. Every span is written to the trace directory at the end.
func runTraced(cfg config, name string) (*result, error) {
	lm := newLayerMetrics()
	order := []string{name}
	for _, n := range workloadOrder {
		if n != name {
			order = append(order, n)
		}
	}
	for i, n := range order {
		lm.current = n
		if err := workloads[n].mirror(cfg, lm, i == 0); err != nil {
			return nil, fmt.Errorf("%s mirror: %w", n, err)
		}
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := writeTrace(path, lm.tracers); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)

	out := map[string]metric{}
	fmt.Println("per-layer metrics (value, unit, samples, measured on):")
	for _, n := range perLayerNames() {
		v, ok := lm.vals[n]
		if !ok {
			lm.ck.fail(0, "per-layer metric %s was not measured", n)
			continue
		}
		out[n] = v.metric
		fmt.Printf("  %-44s %14.6g %-6s n=%-8d %s\n", n, v.Value, v.Unit, v.samples, lm.source[n])
	}
	return lm.ck.result(lm.attempted, out), nil
}

// writeTrace writes spans as Chrome trace-event JSON (viewable in
// Perfetto), one thread per mirror, with each span's op id, parent and
// batch size in args.
func writeTrace(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for tid, t := range tracers {
		fmt.Fprintf(w, `%s{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, sep, tid, t.label)
		sep = ","
		base := t.epoch.Sub(tracers[0].epoch).Nanoseconds()
		for _, s := range t.spans {
			fmt.Fprintf(w, `,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%d,"calls":%d}}`,
				s.name, tid, float64(base+s.start)/1e3, float64(s.end-s.start)/1e3, s.op, s.parent, s.calls)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pairedRuns alternates a step with tracing off and the same step
// traced until d has elapsed (at least one pair), after one untimed
// warm-up step, returning the pairs run and the total untraced and
// traced time. Alternating keeps host drift out of the overhead
// comparison.
func pairedRuns(d time.Duration, tr *tracer, step func(i int, tr *tracer) error) (pairs int, off, on time.Duration, err error) {
	if err := step(0, nil); err != nil {
		return 0, 0, 0, err
	}
	for ; pairs == 0 || off+on < d; pairs++ {
		start := time.Now()
		if err := step(pairs, nil); err != nil {
			return pairs, off, on, err
		}
		mid := time.Now()
		if err := step(pairs, tr); err != nil {
			return pairs, off, on, err
		}
		off += mid.Sub(start)
		on += time.Since(mid)
	}
	return pairs, off, on, nil
}

// referenceBudget is how long a mirror times the workload's real entry
// point: a third of the run for the requested workload, one call for
// the others, which only fill in layers it never reaches.
func referenceBudget(cfg config, primary bool) time.Duration {
	if primary {
		return cfg.budget() / 3
	}
	return 0
}

// timeLoop calls step until d has elapsed and at least minSteps steps
// ran, returning the steps run and the wall time they took.
func timeLoop(d time.Duration, minSteps int, step func(i int) error) (int, time.Duration, error) {
	start := time.Now()
	i := 0
	for ; i < minSteps || time.Since(start) < d; i++ {
		if err := step(i); err != nil {
			return i, time.Since(start), err
		}
	}
	return i, time.Since(start), nil
}

// overhead sets trace.overhead_share and scenario.engine_ns_per_op for
// the primary workload: refNsPerOp is the untraced workload path, off
// and on the mirror's untraced and traced time over pairs steps of
// opsPerStep ops, and t's spans from index from on the traced mirror.
func (lm *layerMetrics) overhead(refNsPerOp float64, pairs int, opsPerStep int64, off, on time.Duration, t *tracer, from int) {
	ops := int64(pairs) * opsPerStep
	lm.attempted += 2 * ops
	offRate, onRate := float64(ops)/off.Seconds(), float64(ops)/on.Seconds()
	lm.set("trace.overhead_share", 1-onRate/offRate, "ratio", int64(pairs))
	lm.set("scenario.engine_ns_per_op", refNsPerOp-float64(t.layerSelfNs(from))/float64(ops), "ns", ops)
	fmt.Printf("%s: workload path %.0f ns/op; mirror %.0f ops/s untraced, %.0f ops/s traced (%d pairs)\n",
		lm.current, refNsPerOp, offRate, onRate, pairs)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// countsLine renders a label->count map as "a=1 b=2".
func countsLine[V any](m map[string]V) string {
	parts := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%v", k, m[k]))
	}
	return strings.Join(parts, " ")
}
