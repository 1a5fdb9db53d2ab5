// Package campaign is the resilient Monte Carlo engine behind the
// paper-scale fault-injection studies. The paper's evaluation runs up to
// 10^6 cachelines per fault model — "a week on 96 cores" for DEC — and a
// campaign of that length cannot afford to be single-threaded, lose its
// state to a Ctrl-C, or die to one panicking trial. This package runs a
// trial budget the way a production measurement pipeline would:
//
//   - The budget is split into shards with a deterministic per-trial RNG
//     derived from (seed, trial index), so the same seed produces
//     bit-identical outcome counts at any worker count.
//   - Workers pull shards from a queue; per-shard progress and outcome
//     counts are committed trial by trial under one lock, so a snapshot
//     of the state is always consistent.
//   - Progress is checkpointed periodically to an atomic JSON file
//     (temp file + rename); a resumed campaign skips exactly the trials
//     the checkpoint accounts for and reproduces the uninterrupted run.
//   - A panicking trial is recovered, counted under PanicLabel,
//     and the campaign continues — one bad cacheline cannot kill a week
//     of compute.
//   - Context cancellation (SIGINT, -timeout) drains gracefully: workers
//     stop at the next trial boundary, a final checkpoint is written,
//     and the partial result is clearly marked.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"polyecc/internal/telemetry"
)

// TrialFunc runs one trial. It must derive all randomness from t.RNG and
// report outcomes through t.Record/t.Add; under those two rules a
// campaign is reproducible and resumable. A panic inside the function is
// recovered by the runner and counted as PanicLabel.
type TrialFunc func(t *Trial)

// PanicLabel is the outcome label of a recovered trial panic. A
// panicked trial contributes exactly one count of it and nothing else,
// so reruns stay deterministic.
const PanicLabel = "panic"

// Trial is one unit of campaign work.
type Trial struct {
	// Index is the global trial index in [0, Config.Trials).
	Index int
	// Shard is the shard the trial belongs to.
	Shard int
	// Worker is the index of the worker goroutine running the trial.
	// Outcomes must never depend on it (scheduling is nondeterministic);
	// it exists for observability — journal events and worker timelines.
	Worker int
	// RNG is the trial's private deterministic generator, derived from
	// (Config.Seed, Index). It does not depend on worker count, shard
	// scheduling, or which trials ran before.
	RNG *rand.Rand
	// Local is the per-worker state built by Config.WorkerState (nil when
	// that hook is unset). Every trial a worker runs sees the same value,
	// and no other worker ever touches it — the campaign-engine home for
	// allocation-free scratch buffers like poly.Scratch.
	Local any

	adds map[string]int64
}

// Record counts one occurrence of an outcome label.
func (t *Trial) Record(outcome string) { t.Add(outcome, 1) }

// Add accumulates n under an outcome label. Labels are free-form; sums
// (e.g. total correction iterations) are as welcome as event counts.
func (t *Trial) Add(outcome string, n int64) {
	if t.adds == nil {
		t.adds = make(map[string]int64, 4)
	}
	t.adds[outcome] += n
}

// Config parameterizes a campaign run.
type Config struct {
	// Name identifies the campaign; a checkpoint only resumes a campaign
	// with the same name.
	Name string
	// Trials is the total trial budget. Required.
	Trials int
	// Shards is the checkpointing granularity: each shard owns a
	// contiguous slice of the trial budget and records its own progress.
	// The default (64) is independent of worker count; results never
	// depend on the shard count, but a checkpoint only resumes with the
	// same one.
	Shards int
	// Workers is the number of concurrent trial goroutines. Defaults to
	// GOMAXPROCS.
	Workers int
	// Seed drives every trial's RNG derivation.
	Seed int64
	// CheckpointPath, when set, receives an atomic JSON snapshot of the
	// campaign state every CheckpointEvery trials and once at the end.
	CheckpointPath string
	// CheckpointEvery is the number of committed trials between
	// checkpoint writes (default 1000).
	CheckpointEvery int
	// Resume loads CheckpointPath before running and skips the trials it
	// accounts for. The checkpoint must match Name, Seed, Trials, and
	// Shards exactly.
	Resume bool
	// WorkerState, when set, is invoked once per worker goroutine; its
	// return value is handed to every trial that worker runs via
	// Trial.Local. Trial outcomes must not depend on the state's history
	// (it is reused across trials in scheduler order), or determinism and
	// checkpoint resume break. Reusable decode scratch is the intended
	// use.
	WorkerState func() any
	// Metrics, when non-nil, receives live counter updates.
	Metrics *Metrics
	// Journal, when non-nil, is the flight recorder: every worker's
	// per-shard execution is recorded as a span (the Chrome-trace worker
	// timeline), every recovered panic as a trial-outcome event, and
	// every trial matching JournalOutcomes likewise. The journal is
	// bounded, so a week-long campaign records at steady memory.
	Journal *telemetry.Journal
	// JournalOutcomes selects which trials are journaled: a trial is
	// recorded when any of its outcome labels contains one of these
	// substrings ("sdc" matches both "sdc" and "matmul.ne.sdc"). Nil
	// journals only panics. Ignored without Journal.
	JournalOutcomes []string
	// Manifest, when non-nil, is embedded in every checkpoint so the file
	// is traceable to the invocation that wrote it.
	Manifest *telemetry.Manifest
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// ProgressEvery is the interval between progress/ETA log lines
	// (default 10s; negative disables).
	ProgressEvery time.Duration
}

func (cfg *Config) applyDefaults() {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.Shards > cfg.Trials {
		cfg.Shards = cfg.Trials
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1000
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 10 * time.Second
	}
}

// Result summarizes a campaign run. The JSON shape is part of the
// artifact surface: cmd/faultinject -summary embeds a Result, and
// cmd/eccreport reads it back.
type Result struct {
	Name      string           `json:"name"`
	Trials    int              `json:"trials"`
	Completed int              `json:"completed"` // trials accounted for, including resumed ones
	Skipped   int              `json:"skipped"`   // trials restored from the checkpoint instead of re-run
	Panics    int64            `json:"panics"`
	Partial   bool             `json:"partial"` // cancelled or timed out before the budget was spent
	Elapsed   time.Duration    `json:"elapsed_ns"`
	Counts    map[string]int64 `json:"counts"` // aggregated outcome labels
}

// Count returns the aggregated count for one outcome label.
func (r Result) Count(label string) int64 { return r.Counts[label] }

// Metrics are the live collectors of a running campaign, shaped for
// telemetry.Publish under one prefix.
type Metrics struct {
	Completed   telemetry.Counter        // trials committed (this process)
	Panics      telemetry.Counter        // trial panics recovered
	Resumed     telemetry.Counter        // trials skipped via checkpoint resume
	Checkpoints telemetry.Counter        // checkpoint files written
	Outcomes    telemetry.LabeledCounter // outcome labels, live
}

// Publish registers every collector under prefix.<name> in expvar.
func (m *Metrics) Publish(prefix string) {
	telemetry.Publish(prefix+".completed", &m.Completed)
	telemetry.Publish(prefix+".panics", &m.Panics)
	telemetry.Publish(prefix+".resumed", &m.Resumed)
	telemetry.Publish(prefix+".checkpoints", &m.Checkpoints)
	telemetry.Publish(prefix+".outcomes", &m.Outcomes)
}

// shardRange returns the start index and length of one shard's
// contiguous slice of the trial budget.
func shardRange(trials, shards, s int) (start, n int) {
	base, rem := trials/shards, trials%shards
	start = s*base + min(s, rem)
	n = base
	if s < rem {
		n++
	}
	return start, n
}

// trialSeed derives the per-trial RNG seed with a splitmix64-style
// finalizer, so neighbouring indices get uncorrelated streams.
func trialSeed(seed int64, index int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index) + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// state is the shared campaign progress, guarded by mu. Checkpoint
// writes happen under the lock: they are rare (every CheckpointEvery
// trials) and small, and holding the lock makes every written snapshot
// consistent — done[s] trials are exactly what counts[s] accounts for.
type state struct {
	mu        sync.Mutex
	done      []int
	counts    []map[string]int64
	completed int
	panics    int64
	sinceCkpt int
	saveErr   error
}

func newState(shards int) *state {
	st := &state{done: make([]int, shards), counts: make([]map[string]int64, shards)}
	for i := range st.counts {
		st.counts[i] = make(map[string]int64)
	}
	return st
}

func (st *state) doneOf(shard int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.done[shard]
}

func (st *state) completedNow() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.completed
}

// commit records one finished trial and writes a checkpoint when due.
func (st *state) commit(cfg *Config, shard int, adds map[string]int64, panicked bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done[shard]++
	st.completed++
	for label, n := range adds {
		st.counts[shard][label] += n
	}
	if panicked {
		st.panics++
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Completed.Add(1)
		if panicked {
			cfg.Metrics.Panics.Add(1)
		}
		for label, n := range adds {
			cfg.Metrics.Outcomes.Add(label, n)
		}
	}
	if cfg.CheckpointPath == "" {
		return
	}
	st.sinceCkpt++
	if st.sinceCkpt >= cfg.CheckpointEvery {
		st.sinceCkpt = 0
		st.saveLocked(cfg)
	}
}

// saveLocked writes a checkpoint snapshot; callers hold st.mu.
func (st *state) saveLocked(cfg *Config) {
	ck := st.snapshotLocked(cfg)
	if err := ck.save(cfg.CheckpointPath); err != nil {
		// A failed checkpoint write must not kill the campaign; remember
		// the error, log it, and keep computing.
		st.saveErr = err
		cfg.Logger.Error("campaign checkpoint write failed", "name", cfg.Name,
			"path", cfg.CheckpointPath, "err", err)
		return
	}
	st.saveErr = nil
	if cfg.Metrics != nil {
		cfg.Metrics.Checkpoints.Add(1)
	}
}

func (st *state) result(cfg *Config, skipped int, elapsed time.Duration) Result {
	st.mu.Lock()
	defer st.mu.Unlock()
	counts := make(map[string]int64)
	for _, m := range st.counts {
		for label, n := range m {
			counts[label] += n
		}
	}
	return Result{
		Name:      cfg.Name,
		Trials:    cfg.Trials,
		Completed: st.completed,
		Skipped:   skipped,
		Panics:    st.panics,
		Partial:   st.completed < cfg.Trials,
		Elapsed:   elapsed,
		Counts:    counts,
	}
}

// safeTrial runs fn with panic isolation. A panicked trial's partial
// outcome records are discarded so it contributes exactly one
// PanicLabel count — keeping reruns bit-identical.
func safeTrial(fn TrialFunc, t *Trial, logger *slog.Logger) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			t.adds = map[string]int64{PanicLabel: 1}
			logger.Warn("campaign trial panicked; counted and continuing",
				"trial", t.Index, "shard", t.Shard, "panic", fmt.Sprint(r))
		}
	}()
	fn(t)
	return false
}

// journalOutcome returns the comma-joined labels of adds that match the
// configured filter substrings ("" when the trial is not journal-worthy).
func journalOutcome(filters []string, adds map[string]int64) string {
	if len(filters) == 0 || len(adds) == 0 {
		return ""
	}
	var matched []string
	for label := range adds {
		for _, f := range filters {
			if strings.Contains(label, f) {
				matched = append(matched, label)
				break
			}
		}
	}
	sort.Strings(matched)
	return strings.Join(matched, ",")
}

func runShard(ctx context.Context, cfg *Config, fn TrialFunc, st *state, worker, shard int, local any) {
	lo, n := shardRange(cfg.Trials, cfg.Shards, shard)
	journaled := cfg.Journal.Enabled()
	var spanStart time.Time
	ran := 0
	if journaled {
		spanStart = time.Now()
	}
	for k := st.doneOf(shard); k < n; k++ {
		if ctx.Err() != nil {
			break
		}
		idx := lo + k
		t := &Trial{
			Index:  idx,
			Shard:  shard,
			Worker: worker,
			RNG:    rand.New(rand.NewSource(trialSeed(cfg.Seed, idx))),
			Local:  local,
		}
		// Per-trial timing exists only on journaled runs, so the plain
		// campaign hot loop pays no clock reads.
		var trialStart time.Time
		if journaled {
			trialStart = time.Now()
		}
		panicked := safeTrial(fn, t, cfg.Logger)
		st.commit(cfg, shard, t.adds, panicked)
		ran++
		if !journaled {
			continue
		}
		outcome := ""
		if panicked {
			outcome = PanicLabel
		} else {
			outcome = journalOutcome(cfg.JournalOutcomes, t.adds)
		}
		if outcome != "" {
			cfg.Journal.Record(telemetry.Event{
				Kind:    telemetry.KindTrialOutcome,
				Source:  cfg.Name,
				Worker:  worker,
				Index:   idx,
				Outcome: outcome,
				DurNs:   time.Since(trialStart).Nanoseconds(),
			})
		}
	}
	if journaled && ran > 0 {
		// One span per (worker, shard) execution: the building block of
		// the per-worker campaign timeline in the Chrome trace and the
		// eccreport timeline view.
		cfg.Journal.Record(telemetry.Event{
			Kind:   telemetry.KindSpan,
			Source: cfg.Name,
			Name:   fmt.Sprintf("shard-%d", shard),
			Worker: worker,
			Index:  shard,
			TimeNs: spanStart.UnixNano(),
			DurNs:  time.Since(spanStart).Nanoseconds(),
		})
	}
}

// Run executes the campaign until the budget is spent or ctx is
// cancelled. Cancellation is not an error: the returned Result is marked
// Partial and, when CheckpointPath is set, a final checkpoint has been
// written so the run can be resumed. Errors are reserved for unusable
// configuration, checkpoint mismatches, and failed final state writes.
func Run(ctx context.Context, cfg Config, fn TrialFunc) (Result, error) {
	start := time.Now()
	if fn == nil {
		return Result{}, errors.New("campaign: nil trial function")
	}
	if cfg.Trials <= 0 {
		return Result{}, fmt.Errorf("campaign %q: trial budget must be positive, got %d", cfg.Name, cfg.Trials)
	}
	cfg.applyDefaults()

	st := newState(cfg.Shards)
	skipped := 0
	if cfg.Resume {
		if cfg.CheckpointPath == "" {
			return Result{}, errors.New("campaign: Resume requires CheckpointPath")
		}
		ck, err := loadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return Result{}, err
		}
		if err := ck.matches(&cfg); err != nil {
			return Result{}, err
		}
		st.done = ck.Done
		for s := range st.counts {
			if ck.Counts[s] != nil {
				st.counts[s] = ck.Counts[s]
			}
		}
		st.panics = ck.Panics
		for _, d := range ck.Done {
			skipped += d
		}
		st.completed = skipped
		if cfg.Metrics != nil {
			cfg.Metrics.Resumed.Add(int64(skipped))
		}
		cfg.Logger.Info("campaign resumed from checkpoint", "name", cfg.Name,
			"path", cfg.CheckpointPath, "completed", skipped, "of", cfg.Trials)
	}

	stopProgress := make(chan struct{})
	if cfg.ProgressEvery > 0 {
		go progressLoop(&cfg, st, start, skipped, stopProgress)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local any
			if cfg.WorkerState != nil {
				local = cfg.WorkerState()
			}
			for s := range jobs {
				runShard(ctx, &cfg, fn, st, w, s, local)
			}
		}()
	}
	for s := 0; s < cfg.Shards; s++ {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	close(stopProgress)

	if cfg.CheckpointPath != "" {
		st.mu.Lock()
		st.saveLocked(&cfg)
		st.mu.Unlock()
	}
	res := st.result(&cfg, skipped, time.Since(start))
	if res.Partial {
		cfg.Logger.Info("campaign drained with partial results", "name", cfg.Name,
			"completed", res.Completed, "of", res.Trials, "panics", res.Panics,
			"cause", context.Cause(ctx))
	} else {
		cfg.Logger.Info("campaign complete", "name", cfg.Name, "trials", res.Completed,
			"skipped", res.Skipped, "panics", res.Panics, "elapsed", res.Elapsed.Round(time.Millisecond))
	}
	st.mu.Lock()
	saveErr := st.saveErr
	st.mu.Unlock()
	return res, saveErr
}

// progressLoop logs completion and an ETA extrapolated from this run's
// own trial rate (resumed trials don't count toward the rate).
func progressLoop(cfg *Config, st *state, start time.Time, skipped int, stop <-chan struct{}) {
	ticker := time.NewTicker(cfg.ProgressEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			completed := st.completedNow()
			ranHere := completed - skipped
			eta := time.Duration(0)
			if ranHere > 0 && completed < cfg.Trials {
				perTrial := time.Since(start) / time.Duration(ranHere)
				eta = time.Duration(cfg.Trials-completed) * perTrial
			}
			cfg.Logger.Info("campaign progress", "name", cfg.Name,
				"completed", completed, "of", cfg.Trials,
				"pct", fmt.Sprintf("%.1f", 100*float64(completed)/float64(cfg.Trials)),
				"eta", eta.Round(time.Second))
		}
	}
}
