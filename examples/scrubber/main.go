// Scrubber runs a background memory scrubber over a simulated DRAM
// region protected by Polymorphic ECC, the deployment pattern datacenter
// operators pair with proactive DIMM replacement (§VIII-C of the paper).
// Faults accumulate between sweeps — random cell flips plus, eventually,
// a stuck pin — and the scrubber corrects what it finds, reporting the
// classified fault mix a Memory Fault Management Infrastructure (the
// OCP FMI the paper's conclusion points at) would consume.
//
// The patrol is the long-run-safe scrub.Scrubber.Run loop: it sweeps a
// dram.Module until the context is cancelled (sweep budget reached, or
// Ctrl-C), heals correctable array faults by rewriting, and never writes
// back a DUE line — the host re-provisions those from its mirror in the
// OnSweep hook, the way a hypervisor would repair from a replica.
//
// The scrubber is also the deployment-shaped telemetry demo: a
// DecodeMetrics collector rides the decode path and is published at
// /debug/vars (with /debug/pprof alongside) when -metrics-addr is set,
// and a striped latency collector times every patrol decode — live
// per-outcome-class percentiles at /latency, a clean-vs-corrected
// summary at exit.
// With -journal the patrol additionally runs under the adaptive memory
// controller (internal/memctl): every scrub finding streams into the
// controller's embedded health engine (per-region heatmaps, SLO burn
// tracking, /healthz, /regions for ecctop), and the controller closes
// the loop — a fault signature escalates the patrol cadence through the
// scrub.Policy.Interval hook, repeat-offender lines are quarantined,
// and the journaled action log is summarized at exit. The controller's
// live state is served at /memctl.
//
//	go run ./examples/scrubber [-lines 512] [-sweeps 20] [-interval 0] [-metrics-addr :8080] [-journal scrub.jsonl] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os/signal"
	"syscall"
	"time"

	"polyecc"
	"polyecc/internal/dram"
	"polyecc/internal/health"
	"polyecc/internal/latency"
	"polyecc/internal/memctl"
	"polyecc/internal/scrub"
	"polyecc/internal/telemetry"
)

func main() {
	nLines := flag.Int("lines", 512, "cachelines in the scrubbed region")
	sweeps := flag.Int("sweeps", 20, "scrub sweeps to run (0 = until interrupted)")
	interval := flag.Duration("interval", 0, "pause between patrol sweeps")
	seed := flag.Int64("seed", 11, "deterministic seed")
	var obs telemetry.CLIFlags
	obs.Register(flag.CommandLine)
	obs.RegisterJournal(flag.CommandLine)
	flag.Parse()

	// With a journal the patrol runs under the adaptive memory controller:
	// scrub findings stream into its embedded health engine (region
	// heatmaps, SLO burn tracking, /healthz, /regions), and the controller
	// closes the loop — escalating patrol cadence on fault signatures and
	// quarantining repeat offenders. Built before Init so the server
	// starts with the engine already attached.
	var engine *health.Engine
	var ctl *memctl.Controller
	if obs.JournalPath != "" {
		obs.Journal = telemetry.NewJournal(obs.JournalCap)
		obs.Journal.Publish("journal")
		mcfg := memctl.Config{
			Health:  health.Config{WallClock: true},
			Journal: obs.Journal,
		}
		if *interval > 0 {
			mcfg.ScrubBase = *interval
			mcfg.ScrubMin = *interval / 8
		}
		ctl = memctl.MustNew(mcfg)
		ctl.Publish("memctl")
		stopCtl := ctl.Start(obs.Journal)
		defer stopCtl()
		engine = ctl.Health()
		obs.Vitals = ctl
		obs.Extra = append(obs.Extra, telemetry.Endpoint{Path: "/memctl", Payload: ctl.Payload})
	}
	// The patrol's decode timings ride a striped latency collector:
	// per-outcome-class percentiles live at /latency next to /debug/vars.
	lcoll := latency.NewCollector()
	lcoll.Publish("latency")
	obs.Extra = append(obs.Extra, telemetry.Endpoint{Path: "/latency", Payload: func() any { return lcoll.Payload() }})
	logger := obs.Init("scrubber")

	metrics := polyecc.NewDecodeMetrics()
	metrics.Publish("scrubber.decode")
	cfg := polyecc.ConfigM2005()
	cfg.Metrics = metrics

	key := [16]byte{2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5}
	code := polyecc.MustNew(cfg, polyecc.NewSipHashMAC(key, 40))
	mod := dram.NewModule(*nLines)
	truth := make([][polyecc.LineBytes]byte, *nLines)
	r := rand.New(rand.NewSource(*seed))
	for i := range truth {
		r.Read(truth[i][:])
		mod.WriteBurst(i, code.ToBurst(code.EncodeLine(&truth[i])))
	}
	fmt.Printf("scrubbing %d lines (%d KiB) protected by M=%d Polymorphic ECC\n\n",
		*nLines, *nLines*polyecc.LineBytes/1024, code.M())

	// Ctrl-C drains the patrol instead of killing it: Run returns the
	// counts gathered so far and the summary below still prints.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stuckPinFrom := *sweeps / 2
	policy := scrub.DefaultPolicy()
	policy.Journal = obs.Journal
	policy.Latency = lcoll.Probe()
	// Close the loop: the controller owns the patrol cadence, shortening
	// the pause whenever a fault signature escalates the scrub level.
	// Only when a real pause exists — the back-to-back default stays.
	if ctl != nil && *interval > 0 {
		policy.Interval = ctl.ScrubInterval
	}
	policy.OnSweep = func(sweep int, st scrub.Stats, events []scrub.Event) {
		logger.Debug("sweep complete", "sweep", sweep,
			"corrected", st.Corrected, "due", st.DUE,
			"lifetime-corrected", metrics.Corrected.Value())
		if engine != nil {
			status, _ := engine.VitalSigns()
			logger.Debug("health", "sweep", sweep, "status", status)
		}
		// The host's repair action: DUE lines are re-provisioned from the
		// (simulated) mirror — the scrubber itself left them untouched.
		for _, ev := range events {
			if ev.Report.Status == polyecc.StatusUncorrectable {
				d := truth[ev.Line]
				mod.WriteBurst(ev.Line, code.ToBurst(code.EncodeLine(&d)))
			}
		}
		// Faults accumulate between sweeps: a few random cell flips...
		for i := 0; i < 1+r.Intn(4); i++ {
			mod.Hammer(r.Intn(*nLines), 1, r)
		}
		// ...and, in the second half of the run, an IO pin that sticks
		// (an aging device smearing one bit across every beat).
		if *sweeps > 0 && sweep == stuckPinFrom {
			if err := mod.AddStuckPin(3*dram.PinsPerDevice, 1); err != nil {
				telemetry.Fatal(logger, "stuck pin", "err", err)
			}
		}
		if *sweeps > 0 && sweep >= *sweeps {
			cancel()
		}
	}

	s, err := scrub.New(code, mod, policy)
	if err != nil {
		telemetry.Fatal(logger, "scrubber setup", "err", err)
	}
	start := time.Now()
	agg := s.Run(ctx, *interval)

	fmt.Printf("sweeps=%d  clean-reads=%d  corrected=%d  DUE=%d  (%.1fs)\n",
		agg.Sweeps, agg.Clean, agg.Corrected, agg.DUE, time.Since(start).Seconds())
	if s.ReplacementDue() {
		fmt.Printf("replacement due: %d lifetime corrections crossed the threshold\n", s.TotalCorrected())
	}
	fmt.Println("fault classification for the FMI log:")
	for _, m := range []polyecc.FaultModel{polyecc.ModelChipKill, polyecc.ModelSSC, polyecc.ModelBFBF, polyecc.ModelChipKillPlus1, polyecc.ModelDEC} {
		if agg.PerModel[m] > 0 {
			fmt.Printf("  %-11s %d\n", m, agg.PerModel[m])
		}
	}

	// Every surviving line must still decode to ground truth — the patrol
	// corrected and healed without ever silently corrupting data.
	sdc := 0
	for i := range truth {
		burst := mod.ReadBurst(i)
		data, rep := code.DecodeLine(code.FromBurst(&burst))
		if rep.Status != polyecc.StatusUncorrectable && data != truth[i] {
			sdc++
		}
	}
	fmt.Printf("\ntelemetry: correction-trial histogram %s\n", metrics.Iterations.String())
	cq := lcoll.Op(latency.OpDecodeClean).Quantiles()
	xq := lcoll.Op(latency.OpDecodeCorrected).Quantiles()
	fmt.Printf("patrol decode latency (µs): clean p50=%.1f p99=%.1f (n=%d), corrected p50=%.1f p99=%.1f (n=%d)\n",
		cq.P50/1e3, cq.P99/1e3, cq.Count, xq.P50/1e3, xq.P99/1e3, xq.Count)
	if sdc > 0 {
		telemetry.Fatal(logger, "silent corruption", "lines", sdc)
	}
	fmt.Println("every correction verified against ground truth — no SDCs")

	if engine != nil {
		snap := engine.Snapshot()
		fmt.Printf("health: status=%s  regions=%d  signatures=%d  alerts=%d\n",
			snap.Status, snap.RegionsTotal, len(snap.Signatures), len(snap.Alerts))
	}
	if ctl != nil {
		ms := ctl.Snapshot()
		fmt.Printf("controller: scrub-level=%d interval=%s actions=%d",
			ms.ScrubLevel, ms.ScrubInterval, ms.ActionsTotal)
		for _, k := range []string{memctl.ActionScrubEscalate, memctl.ActionScrubRelax,
			memctl.ActionQuarantine, memctl.ActionRelease, memctl.ActionRetire,
			memctl.ActionMigrate, memctl.ActionReorder} {
			if ms.ByKind[k] > 0 {
				fmt.Printf("  %s=%d", k, ms.ByKind[k])
			}
		}
		fmt.Println()
	}
	obs.WriteJournal(logger, "")
}
