// Command faultinject runs fault-injection scenarios: declarative
// workload/fault specs executed by the scenario engine
// (internal/scenario). The paper's campaigns — Figure 4 (workload
// outcomes with plaintext vs encrypted memory), Figure 5 (inference
// accuracy histograms), the live in-model soak, the rowhammer storm,
// and the self-healing memctl soak — are built-in presets
// (-list-scenarios); any other workload mix is a JSON spec file run
// with -spec. A recorded journal re-runs as an injection schedule with
// -replay.
//
// The campaigns run on the resilient campaign engine: trials are
// sharded across -workers goroutines, progress is checkpointed
// atomically to -checkpoint every -checkpoint-every trials, and an
// interrupted run (Ctrl-C, -timeout, or a crash) picks up exactly where
// it left off with -resume — same seed, bit-identical final counts, at
// any worker count. Per-trial panics are absorbed and counted instead
// of killing the campaign. Scenarios that need globally ordered time
// (memctl feedback, scrub patrols, non-uniform arrivals) run on the
// engine's single-threaded virtual clock instead and stay deterministic
// for a seed.
//
// With -metrics-addr the run is observable while in flight: the
// campaign counters (faultinject.*, including
// faultinject.campaign.{completed,panics,checkpoints}) and the decode
// collectors (decode.*) are served at /debug/vars, and /debug/pprof
// offers live CPU/heap profiles.
//
// With -journal the run carries a flight recorder: worker shard spans,
// notable trial outcomes, and the full forensic record of every
// non-clean decode — corrupted words, remainders, injected model,
// applied candidate trail — are kept in a bounded ring and written as
// JSONL at exit (and as a Perfetto-viewable Chrome trace with
// -chrome-trace). -summary writes a manifest-stamped JSON record of the
// run including the scenario digest, and checkpoints embed the same
// manifest; cmd/eccreport merges all three into one HTML report.
//
// With -journal the run also powers the live health engine
// (internal/health): it subscribes to the journal stream and maintains
// sliding-window error rates, a per-region heatmap (/regions), fault
// signatures, and SLO burn-rate state served through /healthz — watch
// it live with cmd/ecctop. -health-snapshot writes the engine's final
// snapshot as JSON, and -serve-after keeps the observability server (and
// the engine) up after the campaign finishes, so dashboards can inspect
// a completed run.
//
// Scenarios with memctl enabled (the memctlsoak preset, -replay
// combined with -memctl, or a spec file's memctl block) instead close
// the loop through the adaptive protection-policy controller
// (internal/memctl): the controller consumes the journal, escalates the
// scrub cadence, quarantines and retires the victim lines, reorders the
// decoder's fault-model trials, and migrates hot regions up a codec
// ladder, and every decision is a journaled policy-action event. Its
// state is served at /memctl and its action log written with -actions.
//
// Usage:
//
//	faultinject -list-scenarios
//	faultinject -scenario figure4 [-n 2000] [-workers 8] [-metrics-addr :8080] [-v]
//	faultinject -scenario figure5 [-n 2500]
//	faultinject -scenario polysoak [-code poly-m2005] [-n 2000]
//	faultinject -scenario stormsoak -journal events.jsonl -health-snapshot health.json
//	faultinject -scenario memctlsoak -journal events.jsonl -actions actions.json
//	faultinject -spec examples/scenarios/mixed-tenants.json -journal events.jsonl
//	faultinject -scenario stormsoak -dump-spec > storm.json   # export a preset as a spec
//	faultinject -replay events.jsonl [-memctl]                # re-run a recorded journal
//	faultinject -scenario figure4 -checkpoint fig4.ckpt -checkpoint-every 200 -timeout 1h
//	faultinject -scenario figure4 -checkpoint fig4.ckpt -resume  # continue after an interrupt
//	faultinject -scenario polysoak -journal events.jsonl -summary run.json -chrome-trace timeline.json
//	faultinject -scenario polysoak -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile and -memprofile write offline pprof profiles bracketing the
// campaign; they are produced on a graceful drain (Ctrl-C, -timeout) too,
// so a soak can be profiled without waiting for the full budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/exp"
	"polyecc/internal/health"
	"polyecc/internal/latency"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

func main() {
	specPath := flag.String("spec", "", "run the scenario spec in this JSON file")
	scenarioName := flag.String("scenario", "", "run a built-in scenario preset by name or alias (-list-scenarios prints the registry)")
	replayPath := flag.String("replay", "", "re-run the decode anomalies recorded in this journal JSONL as an injection schedule (add -memctl to close the controller loop)")
	listScenarios := flag.Bool("list-scenarios", false, "list the built-in scenario presets, then exit")
	dumpSpec := flag.Bool("dump-spec", false, "print the resolved scenario spec as JSON and exit without running it")
	memctlMode := flag.Bool("memctl", false, "with -replay: close the loop through the adaptive memory controller")

	actionsOut := flag.String("actions", "", "write the controller's action log (memctl scenarios) as JSON to this file")
	codeName := flag.String("code", "poly-m2005", "registry code decode scenarios run with (overrides the spec's code when set explicitly)")
	trials := flag.Int("n", 0, "trial budget (default: the scenario's own; per client for the figure campaigns)")
	seed := flag.Int64("seed", 1, "deterministic seed (overrides a spec file's seed when set explicitly)")
	out := flag.String("o", "", "also write the output to this file")
	workers := flag.Int("workers", 0, "concurrent trial workers (default GOMAXPROCS; sequential scenarios ignore this)")
	timeout := flag.Duration("timeout", 0, "abort the campaign after this long, keeping partial results")
	ckpt := flag.String("checkpoint", "", "checkpoint campaign progress to this file")
	ckptEvery := flag.Int("checkpoint-every", 0, "trials between checkpoints (default 1000)")
	resume := flag.Bool("resume", false, "resume from -checkpoint, skipping completed trials")
	chromeTrace := flag.String("chrome-trace", "", "also export the journal as a Chrome trace (Perfetto worker timeline) to this file")
	summary := flag.String("summary", "", "write a manifest-stamped JSON run summary (with the scenario digest) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after the campaign, to this file")
	healthSnap := flag.String("health-snapshot", "", "write the health engine's final snapshot (regions, signatures, SLOs, alerts) as JSON to this file")
	serveAfter := flag.Duration("serve-after", 0, "keep the observability server (and health engine) up this long after the campaign finishes")
	latencyOn := flag.Bool("latency", false, "time every decode and encode (zero-alloc log-linear histograms): per-outcome/per-client/per-phase percentiles in the output and summary, latency.* at /debug/vars and /metrics, live digests at /latency")
	timeseries := flag.String("timeseries", "", "persist the telemetry recorder's cadence samples (counters, windowed latency percentiles, health vitals) to this JSONL file; implies -latency and is served live at /timeseries")
	tsInterval := flag.Duration("timeseries-interval", time.Second, "telemetry recorder sampling cadence")
	tsCap := flag.Int("timeseries-cap", 0, "recorder ring capacity in ticks (default 512; oldest ticks drop from /timeseries but stay in the -timeseries file)")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	obs.RegisterJournal(flag.CommandLine)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *listScenarios {
		printScenarios()
		return
	}

	s, presetName := resolveSpec(*specPath, *replayPath, *scenarioName, *memctlMode)

	// Flag overrides: a spec file owns its seed unless -seed is explicit;
	// presets always take the flag.
	if *specPath == "" || explicit["seed"] {
		s.Seed = *seed
	}
	if *trials > 0 {
		s.SetBudget(*trials)
	}
	if explicit["code"] {
		s.Code = *codeName
	}
	if err := s.Validate(); err != nil {
		die("%v", err)
	}

	if *dumpSpec {
		buf, err := s.MarshalIndent()
		if err != nil {
			die("marshal spec: %v", err)
		}
		fmt.Println(string(buf))
		return
	}

	// The health engine subscribes to the journal stream, so both must
	// exist before Init starts the observability server: the server's
	// /healthz and /regions then carry the engine's state from the first
	// request. Memctl scenarios instead attach the controller (which
	// embeds its own event-time engine and is driven synchronously by
	// the scenario loop), and serve its state at /memctl.
	var engine *health.Engine
	var ctl *memctl.Controller
	memctlOn := s.Memctl != nil && s.Memctl.Enabled
	switch {
	case memctlOn:
		if obs.Journal == nil {
			// The controller consumes the journal even when no -journal
			// file will be written at exit.
			obs.Journal = telemetry.NewJournal(obs.JournalCap)
			obs.Journal.Publish("journal")
		}
		c, err := memctl.New(exp.MemctlSoakConfig(s.Code, obs.Journal))
		if err != nil {
			die("%v", err)
		}
		ctl = c
		ctl.Publish("memctl")
		obs.Vitals = ctl
		obs.Extra = append(obs.Extra, telemetry.Endpoint{Path: "/memctl", Payload: ctl.Payload})
	case obs.JournalPath != "":
		obs.Journal = telemetry.NewJournal(obs.JournalCap)
		obs.Journal.Publish("journal")
		engine = health.New(health.Config{WallClock: true})
		engine.Publish("health")
		stopEngine := engine.Start(obs.Journal)
		defer stopEngine()
		obs.Vitals = engine
	}

	// The latency observatory: a zero-alloc collector on the decode path
	// plus the windowed time-series recorder, both mounted on the
	// observability server before it starts so /latency and /timeseries
	// answer from the first request. A latency stanza in the spec enables
	// the collector too, so spec-driven runs get the same surfaces.
	var latColl *latency.Collector
	var rec *telemetry.Recorder
	if *latencyOn || *timeseries != "" || (s.Latency != nil && s.Latency.Enabled) {
		latColl = latency.NewCollector()
		latColl.Publish("latency")
		rec = telemetry.NewRecorder(*tsInterval, *tsCap)
		rec.Latency("latency.clean", latColl.Op(latency.OpDecodeClean))
		rec.Latency("latency.corrected", latColl.Op(latency.OpDecodeCorrected))
		rec.Latency("latency.uncorrectable", latColl.Op(latency.OpDecodeUncorrectable))
		rec.Latency("latency.encode", latColl.Op(latency.OpEncode))
		rec.Counter("campaign.completed", &scenario.Campaign().Runner.Completed)
		if engine != nil {
			rec.Source("health", engine.Sample)
		}
		obs.Extra = append(obs.Extra,
			telemetry.Endpoint{Path: "/latency", Payload: func() any { return latColl.Payload() }},
			telemetry.Endpoint{Path: "/timeseries", Payload: func() any { return rec.Payload() }})
	}
	logger := obs.Init("faultinject")

	// The manifest binds every artifact this run writes — checkpoint,
	// summary, journal — to this exact invocation.
	manifest := telemetry.NewManifest("faultinject")
	manifest.Seed = s.Seed

	// The decode collectors are published up front so /debug/vars shows
	// the full metric surface from the first scrape; every decode-path
	// scenario feeds them.
	decodeMetrics := telemetry.NewDecodeMetrics()
	decodeMetrics.Publish("decode")
	if rec != nil {
		rec.Counter("decode.clean", &decodeMetrics.Clean)
		rec.Counter("decode.corrected", &decodeMetrics.Corrected)
		rec.Counter("decode.uncorrectable", &decodeMetrics.Uncorrectable)
		if *timeseries != "" {
			// The recorder file is manifest-stamped and resumable the way
			// campaign checkpoints are: an existing file's tail reloads
			// into the ring and new ticks append after it.
			if err := rec.Persist(*timeseries, manifest); err != nil {
				telemetry.Fatal(logger, "open timeseries file", "path", *timeseries, "err", err)
			}
		}
		rec.Start()
	}

	opts := scenario.Opts{
		Workers:         *workers,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		Journal:         obs.Journal,
		Manifest:        manifest,
		Metrics:         decodeMetrics,
		Latency:         latColl,
		Controller:      ctl,
	}
	if *resume && *ckpt == "" {
		telemetry.Fatal(logger, "-resume needs -checkpoint")
	}

	// Decode scenarios resolve the code here so the manifest carries its
	// display name; memctl scenarios record the registry key that roots
	// the controller's migration ladder instead.
	if memctlOn {
		manifest.Codec = s.Code
	} else if s.Kind == scenario.KindDecode || s.Kind == scenario.KindReplay {
		lc, err := linecode.New(s.Code)
		if err != nil {
			telemetry.Fatal(logger, "building scenario code", "err", err)
		}
		opts.Code = lc
		manifest.Codec = lc.Name()
	}

	// Ctrl-C (or -timeout) drains the campaign instead of killing it: a
	// final checkpoint is written and the partial report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Offline profiles bracket the campaign itself, not the report
	// rendering. They are stopped and written right after the campaign
	// returns, so a graceful drain (Ctrl-C or -timeout) still produces
	// them; only telemetry.Fatal paths lose the profile.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			telemetry.Fatal(logger, "create cpu profile", "path", *cpuProfile, "err", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			telemetry.Fatal(logger, "start cpu profile", "err", err)
		}
		cpuFile = f
	}

	logger.Info("running scenario", "name", s.Name, "kind", s.Kind, "trials", s.Trials,
		"seed", s.Seed, "workers", opts.Workers)
	res, err := scenario.Run(ctx, s, opts)
	if res == nil {
		telemetry.Fatal(logger, "scenario failed", "name", s.Name, "err", err)
	}
	if err != nil && !res.Campaign.Partial {
		telemetry.Fatal(logger, "scenario failed", "name", s.Name, "err", err)
	}
	run := res.Campaign
	text := res.Render()

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			telemetry.Fatal(logger, "close cpu profile", "path", *cpuProfile, "err", err)
		}
		logger.Info("wrote cpu profile", "path", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			telemetry.Fatal(logger, "create heap profile", "path", *memProfile, "err", err)
		}
		runtime.GC() // settle the heap so the profile shows what survives the campaign
		if err := pprof.WriteHeapProfile(f); err != nil {
			telemetry.Fatal(logger, "write heap profile", "path", *memProfile, "err", err)
		}
		if err := f.Close(); err != nil {
			telemetry.Fatal(logger, "close heap profile", "path", *memProfile, "err", err)
		}
		logger.Info("wrote heap profile", "path", *memProfile)
	}

	if run.Partial {
		banner := fmt.Sprintf("*** PARTIAL RUN: %d/%d trials completed", run.Completed, run.Trials)
		if *ckpt != "" {
			banner += fmt.Sprintf(" — resume with -resume -checkpoint %s", *ckpt)
		}
		text = banner + " ***\n\n" + text
	}
	if run.Panics > 0 {
		logger.Warn("trials panicked and were absorbed", "panics", run.Panics)
	}
	if run.Skipped > 0 {
		logger.Info("resumed from checkpoint", "skipped", run.Skipped)
	}

	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			telemetry.Fatal(logger, "write output", "path", *out, "err", err)
		}
		logger.Info("wrote output", "path", *out)
	}

	manifest.Finish()
	obs.WriteJournal(logger, *chromeTrace)
	if *summary != "" {
		scenSum := s.Summarize()
		scenSum.Preset = presetName
		doc := struct {
			Manifest *telemetry.Manifest     `json:"manifest"`
			Scenario *scenario.Summary       `json:"scenario"`
			Result   campaign.Result         `json:"result"`
			Latency  *scenario.LatencyDigest `json:"latency,omitempty"`
		}{manifest, scenSum, run, res.Latency}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			telemetry.Fatal(logger, "marshal summary", "err", err)
		}
		if err := os.WriteFile(*summary, append(buf, '\n'), 0o644); err != nil {
			telemetry.Fatal(logger, "write summary", "path", *summary, "err", err)
		}
		logger.Info("wrote run summary", "path", *summary)
	}

	if *actionsOut != "" {
		if ctl == nil {
			telemetry.Fatal(logger, "-actions needs a memctl scenario (the controller produces the action log)")
		}
		buf, err := json.MarshalIndent(ctl.Actions(), "", "  ")
		if err != nil {
			telemetry.Fatal(logger, "marshal action log", "err", err)
		}
		if err := os.WriteFile(*actionsOut, append(buf, '\n'), 0o644); err != nil {
			telemetry.Fatal(logger, "write action log", "path", *actionsOut, "err", err)
		}
		logger.Info("wrote action log", "path", *actionsOut, "actions", ctl.ActionsTotal())
	}

	if *healthSnap != "" {
		snapEngine := engine
		if snapEngine == nil && ctl != nil {
			// Memctl scenarios drive their controller synchronously, so the
			// embedded engine is already settled.
			snapEngine = ctl.Health()
		}
		if snapEngine == nil {
			telemetry.Fatal(logger, "-health-snapshot needs -journal (the health engine feeds on the flight recorder)")
		}
		if engine != nil {
			waitEngineSettled(engine, obs.Journal)
		}
		buf, err := json.MarshalIndent(snapEngine.Snapshot(), "", "  ")
		if err != nil {
			telemetry.Fatal(logger, "marshal health snapshot", "err", err)
		}
		if err := os.WriteFile(*healthSnap, append(buf, '\n'), 0o644); err != nil {
			telemetry.Fatal(logger, "write health snapshot", "path", *healthSnap, "err", err)
		}
		logger.Info("wrote health snapshot", "path", *healthSnap, "status", snapEngine.State())
	}
	if *serveAfter > 0 && obs.MetricsAddr != "" {
		logger.Info("campaign done; observability server stays up", "for", *serveAfter)
		select {
		case <-ctx.Done():
		case <-time.After(*serveAfter):
		}
	}
	// The recorder outlives the campaign so /timeseries keeps ticking
	// through -serve-after; Stop takes the final sample and closes the
	// -timeseries sink.
	rec.Stop()
}

// resolveSpec picks the scenario to run: an explicit spec file, a
// journal replay (closed through the controller with -memctl), or a
// named preset. The bare invocation runs figure4.
func resolveSpec(specPath, replayPath, scenarioName string, memctlMode bool) (*scenario.Spec, string) {
	if memctlMode && replayPath == "" {
		fmt.Fprintln(os.Stderr, "faultinject: -memctl closes a -replay through the controller; run the self-healing soak with -scenario memctlsoak")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case specPath != "":
		s, err := scenario.ParseFile(specPath)
		if err != nil {
			die("%v", err)
		}
		return s, ""
	case replayPath != "":
		s := &scenario.Spec{Name: "replay", Kind: scenario.KindReplay,
			Replay: &scenario.ReplaySpec{Path: replayPath}}
		if memctlMode {
			s.Memctl = &scenario.MemctlSpec{Enabled: true, RegionLines: 64}
		}
		return s, ""
	case scenarioName != "":
		p, ok := scenario.LookupPreset(scenarioName)
		if !ok {
			die("unknown scenario %q (-list-scenarios prints the registry)", scenarioName)
		}
		return p.Spec(), p.Name
	default:
		p, _ := scenario.LookupPreset("figure4")
		return p.Spec(), p.Name
	}
}

func printScenarios() {
	fmt.Println("Built-in scenarios (run with -scenario <name>; -dump-spec exports the resolved spec as JSON):")
	for _, p := range scenario.Presets() {
		fmt.Printf("  %-11s %s\n", p.Name, p.Doc)
		extras := []string{fmt.Sprintf("default budget %d", p.DefaultTrials)}
		if len(p.Aliases) > 0 {
			extras = append([]string{"aliases: " + strings.Join(p.Aliases, ", ")}, extras...)
		}
		fmt.Printf("              %s\n", strings.Join(extras, "; "))
	}
	fmt.Println()
	fmt.Println("Custom workload mixes are JSON spec files run with -spec; see examples/scenarios/ and EXPERIMENTS.md.")
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "faultinject: "+format+"\n", args...)
	os.Exit(1)
}

// waitEngineSettled gives the health engine's subscription pump a
// bounded window to catch up with everything the journal recorded, so
// the final snapshot misses nothing from the just-finished campaign.
func waitEngineSettled(e *health.Engine, j *telemetry.Journal) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Snapshot()
		if s.Events+s.SubDropped >= j.Recorded() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
