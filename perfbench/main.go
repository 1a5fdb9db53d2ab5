// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Four seeded workloads drive the program through its public
// entry points:
//
//   - soak:   the polysoak preset through scenario.Run at one worker;
//     one op is one trial.
//   - patrol: scrub.Scrubber.Sweep over a 65,536-line dram.Module on the
//     batched, journal-free path with rewrites on; one op is one line.
//   - tablev: the Table V comparison as registry decodes
//     (linecode.Code.Decode) of pre-generated faulted bursts; one op is
//     one decode.
//   - memctl: the memctlsoak preset at 200,000 trials through
//     scenario.Run with a journal and a controller; one op is one trial.
//
// With -trace 0 a run prints the end-to-end metrics of one workload;
// with -trace 1 it prints the per-layer metrics of a separate traced
// run. The last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the binary from source:
//
//	bash perfbench/run.sh --workload soak --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// Seeds: defaultSeed is what a run without -seed uses; heldOutSeed was
// kept out of tuning and must pass every check too (the Table V pins
// cover both).
const (
	defaultSeed = 1
	heldOutSeed = 97
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload runner receives.
type config struct {
	seed     int64
	seconds  float64
	traceDir string
}

// budget is the timed-region length.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one named benchmark workload: run measures the end-to-end
// metrics untraced; mirror is the traced loop that feeds the per-layer
// metrics (see trace.go).
type workload struct {
	run    func(cfg config) (*result, error)
	mirror func(cfg config, lm *layerMetrics, primary bool) error
}

var workloads = map[string]workload{
	"soak":   {run: runSoak, mirror: mirrorSoak},
	"patrol": {run: runPatrol, mirror: mirrorPatrol},
	"tablev": {run: runTableV, mirror: mirrorTableV},
	"memctl": {run: runMemctl, mirror: mirrorMemctl},
}

// workloadOrder is the order traced runs visit the other workloads in.
var workloadOrder = []string{"soak", "patrol", "tablev", "memctl"}

func main() {
	name := flag.String("workload", "", "workload to run: soak, patrol, tablev or memctl")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 20, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory traced runs write their spans to")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (soak|patrol|tablev|memctl), -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	// Every workload is a closed loop on one goroutine. With one P the
	// garbage collector runs on the same CPU as the workload, so its cost
	// is charged to the ops that cause it and a run does not depend on a
	// second CPU that other tenants of the host share: with two Ps, runs
	// on a busy 2-vCPU host slowed by up to a third while one-P runs held.
	runtime.GOMAXPROCS(1)
	// The campaign engine logs one line per run at Info; keep the
	// benchmark's standard error for real diagnostics.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1})))

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	cfg := config{seed: *seed, seconds: *seconds, traceDir: *traceDir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg, *name)
	} else {
		res, err = w.run(cfg)
	}
	pprof.StopCPUProfile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *trace == 0 {
		printMetrics(res)
	} else {
		printCounts(res)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics lists every metric by name with its unit, one per line.
// (Traced runs print theirs with sample counts as they are measured.)
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	printCounts(res)
}

// printCounts prints the run's check summary.
func printCounts(res *result) {
	fmt.Printf("correct=%v attempted=%d failed=%d failed_share=%.3g\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
}
