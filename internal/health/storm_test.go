package health_test

import (
	"context"
	"testing"
	"time"

	"polyecc/internal/health"
	"polyecc/internal/linecode"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// The acceptance test of the live health engine: a seeded rowhammer
// storm soak, replayed through the engine on a deterministic event-time
// clock, must drive the SLO state machine to PAGE and raise the
// rowhammer-storm signature at the seed-derived aggressor row — on any
// machine, at any worker count.
func TestStormSoakPagesWithRowhammerSignature(t *testing.T) {
	const (
		trials = 4000
		seed   = 7
	)
	j := telemetry.NewJournal(64 * 1024)
	lc, err := linecode.New("poly-m2005")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := scenario.LookupPreset("stormsoak")
	if !ok {
		t.Fatal("preset stormsoak missing")
	}
	s := p.Build()
	s.Seed = seed
	s.SetBudget(trials)
	run, err := scenario.Run(context.Background(), s,
		scenario.Opts{Journal: j, Metrics: telemetry.NewDecodeMetrics(), Code: lc})
	if err != nil {
		t.Fatal(err)
	}
	res := run.Decode()
	if res.Completed != trials {
		t.Fatalf("completed %d/%d trials", res.Completed, trials)
	}
	if res.Corrected < trials/2 {
		t.Fatalf("storm corrected only %d of %d trials — not a storm", res.Corrected, trials)
	}

	// Replay the journal on a synthetic clock: one event per millisecond,
	// in sequence order. Wall-clock jitter between workers never reaches
	// the engine, so the burn rates — and therefore the PAGE transition —
	// are identical on every machine.
	events := j.Drain()
	if len(events) == 0 {
		t.Fatal("storm journaled no events")
	}
	base := int64(1_700_000_000) * int64(time.Second)
	for i := range events {
		events[i].TimeNs = base + int64(i)*int64(time.Millisecond)
	}
	e := health.New(health.Config{})
	e.ObserveAll(events)

	snap := e.Snapshot()
	if snap.Status != health.StatePage {
		t.Fatalf("status = %s, want page; slos %+v", snap.Status, snap.SLOs)
	}
	var storm *health.Signature
	for i := range snap.Signatures {
		if snap.Signatures[i].Kind == "rowhammer-storm" {
			storm = &snap.Signatures[i]
		}
	}
	if storm == nil {
		t.Fatalf("no rowhammer-storm signature; signatures %+v", snap.Signatures)
	}
	if storm.Row != res.AggressorRow {
		t.Fatalf("storm localized to row %d, want seed-derived aggressor %d", storm.Row, res.AggressorRow)
	}
	// Both the page transition and the signature must be on the alert
	// timeline — that is what `make health-smoke` greps for over HTTP.
	var sawPage, sawStorm bool
	for _, a := range snap.Alerts {
		if a.Kind == "slo-burn" && a.Severity == "page" {
			sawPage = true
		}
		if a.Kind == "rowhammer-storm" {
			sawStorm = true
		}
	}
	if !sawPage || !sawStorm {
		t.Fatalf("alert timeline missing page=%v storm=%v: %+v", sawPage, sawStorm, snap.Alerts)
	}
	// The heatmap must concentrate the errors in the two victim rows'
	// regions, not spread them uniformly.
	victimRegionLo := (res.AggressorRow - 1) * scenario.StormRowLines / 64
	victimRegionHi := (res.AggressorRow + 1) * scenario.StormRowLines / 64
	var victimHits, totalHits int64
	for _, r := range snap.Regions {
		n := r.Corrected + r.SDC + r.DUE
		totalHits += n
		if r.Region >= victimRegionLo && r.Region <= victimRegionHi {
			victimHits += n
		}
	}
	if victimHits*2 < totalHits {
		t.Fatalf("heatmap not storm-shaped: %d of %d hits in victim regions", victimHits, totalHits)
	}
}
