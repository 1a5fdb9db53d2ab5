package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"polyecc/internal/memctl"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// The self-healing soak must complete the whole arc — the storm drives
// health to page, the controller escalates and fences, health returns
// to ok — and the recorded journal must replay to the identical action
// log (the determinism contract of DESIGN.md §13), end to end through
// real decodes.
func TestMemctlSoakHealsAndReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak (8000 trials) skipped in -short mode")
	}
	const codeName = "poly-m2005"
	j := telemetry.NewJournal(8192)
	ctl := memctl.MustNew(MemctlSoakConfig(codeName, j))
	p, ok := scenario.LookupPreset("memctlsoak")
	if !ok {
		t.Fatal("preset memctlsoak missing")
	}
	s := p.Build()
	s.Seed = 1
	s.SetBudget(8000)
	s.Code = codeName
	run, err := scenario.Run(context.Background(), s,
		scenario.Opts{Journal: j, Metrics: telemetry.NewDecodeMetrics(), Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	res := *run.Seq

	if !res.Healed {
		t.Fatalf("soak did not heal: %+v", res)
	}
	if res.StormWorst != "page" || res.FinalStatus != "ok" {
		t.Fatalf("health arc = %s -> %s, want page -> ok", res.StormWorst, res.FinalStatus)
	}
	for _, kind := range []string{memctl.ActionScrubEscalate, memctl.ActionQuarantine,
		memctl.ActionRelease, memctl.ActionRetire, memctl.ActionMigrate, memctl.ActionReorder} {
		if res.Actions[kind] == 0 {
			t.Fatalf("no %s action in the soak (actions: %v)", kind, res.Actions)
		}
	}
	if len(res.RetiredPages) == 0 {
		t.Fatal("aggressor page not retired")
	}
	if out := run.Render(); !strings.Contains(out, "SELF-HEAL OK") {
		t.Fatalf("render missing the SELF-HEAL OK marker:\n%s", out)
	}

	// Replay: the journal must have kept every event (the contract needs
	// full coverage), and a fresh controller fed the recorded stream must
	// reproduce the live action log bit for bit.
	if d := j.Dropped(); d != 0 {
		t.Fatalf("journal dropped %d events — capacity too small for the contract", d)
	}
	replayed, err := memctl.Replay(MemctlSoakConfig(codeName, nil), j.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Actions(), ctl.Actions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed action log diverged (live %d actions, replay %d)", len(want), len(got))
	}
}
