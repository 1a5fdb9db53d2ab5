package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// deriveSeed maps (run seed, index) to an independent input seed with a
// splitmix64 step, so each input of a run is a pure function of -seed.
func deriveSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// timeSetup builds a workload's state k times from a collected heap and
// returns the last build with the median build time in seconds. One
// build is too short and too noisy to gate on; the median of several is
// what setup_s reports.
func timeSetup[S any](k int, build func() (S, error)) (S, float64, error) {
	var st S
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		var zero S
		st = zero // drop the previous build before collecting
		runtime.GC()
		start := time.Now()
		built, err := build()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return st, 0, err
		}
		st = built
	}
	med := median(times)
	fmt.Printf("setup: %d builds, min/median/max %.6g/%.6g/%.6g s\n", k, times[0], med, times[len(times)-1])
	return st, med, nil
}

// passLoop is the timed region of an untraced run. Inputs are a fixed,
// seed-derived set; passes cycle through them until the budget of timed
// time is spent and every input has run at least once.
type passLoop struct {
	inputs int
	budget time.Duration
	// prepare runs before a pass with the clock stopped.
	prepare func(in int) error
	// pass is the timed call; it returns the ops it completed.
	pass func(in int) (int64, error)
	// check validates a pass with the clock stopped, reporting failures
	// to the run's checker; first is true on an input's first pass, when
	// simulated statistics are taken.
	check func(in int, first bool)
}

// timing is what a passLoop measured.
type timing struct {
	durs     [][]time.Duration // per input, every pass
	ops      []int64           // per input, ops of one pass
	attempts int64             // ops over all passes
	allocs   uint64            // heap allocations inside timed calls
	heapPeak uint64            // peak /gc/heap/live:bytes
}

func (l passLoop) run() (*timing, error) {
	t := &timing{durs: make([][]time.Duration, l.inputs), ops: make([]int64, l.inputs)}
	var ms runtime.MemStats
	runtime.GC()
	t.heapPeak = heapLive()
	var spent time.Duration
	for i := 0; i < l.inputs || spent < l.budget; i++ {
		in := i % l.inputs
		if l.prepare != nil {
			if err := l.prepare(in); err != nil {
				return nil, err
			}
		}
		// ReadMemStats flushes the per-P caches, so Mallocs is exact.
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		ops, err := l.pass(in)
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, err
		}
		t.allocs += ms.Mallocs - before
		spent += d
		t.durs[in] = append(t.durs[in], d)
		t.ops[in] = ops
		t.attempts += ops
		l.check(in, i < l.inputs)
		t.heapPeak = max(t.heapPeak, heapLive())
	}
	runtime.GC()
	t.heapPeak = max(t.heapPeak, heapLive())
	return t, nil
}

// passRates returns every pass's ops per second of pass wall time.
func (t *timing) passRates() []float64 {
	var rates []float64
	for in, ds := range t.durs {
		for _, d := range ds {
			rates = append(rates, float64(t.ops[in])/d.Seconds())
		}
	}
	return rates
}

// opsPerSec is the median pass rate: a host stall slows one pass, not
// the estimate. Every input runs at least once, and passes cycle through
// the inputs in order, so the passes are spread evenly over them.
func (t *timing) opsPerSec() float64 {
	rates := t.passRates()
	r := median(rates)
	fmt.Printf("timed passes: %d, rate min/median/max %.6g/%.6g/%.6g ops/s\n", len(rates), rates[0], r, rates[len(rates)-1])
	return r
}

// hostMetrics are the four host-time end-to-end metrics every workload
// reports.
func (t *timing) hostMetrics(setup float64) map[string]metric {
	return map[string]metric{
		"ops_per_s":     {t.opsPerSec(), "ops/s"},
		"setup_s":       {setup, "s"},
		"heap_live_mb":  {float64(t.heapPeak) / (1 << 20), "MiB"},
		"allocs_per_op": {float64(t.allocs) / float64(t.attempts), "count"},
	}
}

// mallocs reads the exact heap allocation count (ReadMemStats flushes
// the per-P caches first).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapLive reads the heap marked live by the last GC cycle.
func heapLive() uint64 {
	metrics.Read(liveSample)
	if liveSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return liveSample[0].Value.Uint64()
}

// median of a non-empty slice (sorted in place).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile with linear interpolation, sorting v
// in place; NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// checker collects correctness failures: failed counts the ops that
// failed a check, problems says which checks.
type checker struct {
	failed   int64
	problems []string
}

// fail records a failed check covering ops ops.
func (c *checker) fail(ops int64, format string, args ...any) {
	c.failed += ops
	if len(c.problems) < 32 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// result assembles the run's result line, printing any failed checks to
// standard error.
func (c *checker) result(attempted int64, m map[string]metric) *result {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if len(c.problems) > 0 && c.failed == 0 {
		c.failed = 1 // a failed whole-run check still fails the run
	}
	return &result{Correct: len(c.problems) == 0, Attempted: attempted, Failed: c.failed, Metrics: m}
}
