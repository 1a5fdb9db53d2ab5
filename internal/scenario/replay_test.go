package scenario_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"polyecc/internal/exp"
	"polyecc/internal/memctl"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// recordStorm runs the rowhammer storm preset with a journal big enough
// that the ring never drops, and returns the recorded events.
func recordStorm(t *testing.T, trials int, seed int64) []telemetry.Event {
	t.Helper()
	p, ok := scenario.LookupPreset("stormsoak")
	if !ok {
		t.Fatal("preset stormsoak missing")
	}
	s := p.Build()
	s.Seed = seed
	s.SetBudget(trials)
	j := telemetry.NewJournal(8 * trials)
	if _, err := scenario.Run(context.Background(), s, scenario.Opts{Workers: 4, Journal: j}); err != nil {
		t.Fatal(err)
	}
	return j.Snapshot()
}

// anomalies filters a journal stream down to its decode-anomaly records.
func anomalies(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if e.Kind == telemetry.KindDecodeAnomaly {
			out = append(out, e)
		}
	}
	return out
}

// TestLoadScheduleMatchesAnomalyStream: the compiled schedule must be a
// faithful projection of the recorded anomaly stream — same order, same
// lines, same injected models, same virtual timestamps.
func TestLoadScheduleMatchesAnomalyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("storm recording is slow; skipped under -short")
	}
	events := recordStorm(t, 200, 7)
	want := anomalies(events)
	if len(want) == 0 {
		t.Fatal("storm recorded no anomalies")
	}
	schedule := scenario.LoadSchedule(events)
	if len(schedule) != len(want) {
		t.Fatalf("schedule has %d steps, journal has %d anomalies", len(schedule), len(want))
	}
	for i, step := range schedule {
		e := &want[i]
		if step.Seq != e.Seq || step.TimeNs != e.TimeNs || step.Line != e.Index {
			t.Fatalf("step %d = %+v does not match event seq=%d time=%d line=%d", i, step, e.Seq, e.TimeNs, e.Index)
		}
		da, ok := e.AnomalyDetail()
		if !ok {
			t.Fatalf("anomaly %d carries no detail", i)
		}
		if step.Model != da.Injected {
			t.Fatalf("step %d model %q, recorded injection %q", i, step.Model, da.Injected)
		}
	}
}

// TestReplayReproducesSchedule: replaying a recorded journal must run
// one trial per recorded anomaly, re-injecting the same model on the
// same line at the same virtual time — and the replay's own journal
// must carry that schedule back out.
func TestReplayReproducesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("storm recording is slow; skipped under -short")
	}
	events := recordStorm(t, 200, 7)
	schedule := scenario.LoadSchedule(events)
	if len(schedule) == 0 {
		t.Fatal("nothing to replay")
	}

	spec := &scenario.Spec{Name: "replay-test", Kind: scenario.KindReplay}
	replayJournal := telemetry.NewJournal(8 * len(schedule))
	res, err := scenario.Run(context.Background(), spec, scenario.Opts{
		Workers:      1,
		Journal:      replayJournal,
		ReplayEvents: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != len(schedule) {
		t.Fatalf("replay ran %d steps, schedule has %d", len(res.Schedule), len(schedule))
	}
	if got := res.Campaign.Completed; got != len(schedule) {
		t.Fatalf("replay completed %d trials, want one per anomaly (%d)", got, len(schedule))
	}
	total := res.Campaign.Count("clean") + res.Campaign.Count("corrected") + res.Campaign.Count("due")
	if total != int64(len(schedule)) {
		t.Fatalf("clean+corrected+due = %d, want %d", total, len(schedule))
	}

	// The replay's journal records a fresh anomaly stream; at one worker
	// it must land in schedule order with the pinned line/model/time.
	replayed := anomalies(replayJournal.Snapshot())
	byOrder := 0
	for _, e := range replayed {
		if byOrder >= len(schedule) {
			t.Fatalf("replay journaled more anomalies than scheduled steps")
		}
		step := schedule[byOrder]
		byOrder++
		if e.Index != step.Line || e.TimeNs != step.TimeNs {
			t.Fatalf("replayed anomaly %d at line=%d time=%d, scheduled line=%d time=%d",
				byOrder-1, e.Index, e.TimeNs, step.Line, step.TimeNs)
		}
		da, ok := e.AnomalyDetail()
		if !ok {
			t.Fatalf("replayed anomaly %d carries no detail", byOrder-1)
		}
		if da.Injected != step.Model {
			t.Fatalf("replayed anomaly %d injected %q, scheduled %q", byOrder-1, da.Injected, step.Model)
		}
	}
	if byOrder != len(schedule) {
		t.Fatalf("replay journaled %d anomalies, want one per scheduled step (%d)", byOrder, len(schedule))
	}
}

// replayGolden pins one closed-loop replay: the whole sequential
// trajectory plus the aggregate outcome counts.
type replayGolden struct {
	Steps  int                `json:"steps"`
	Seq    scenario.SeqResult `json:"seq"`
	Counts map[string]int64   `json:"counts"`
}

// TestMemctlReplayGolden pins the closed-loop replay (`faultinject
// -replay events.jsonl -memctl`): a memctlsoak journal recorded at seed
// 1 is re-driven through a fresh controller, and every phase tally,
// policy action, migration and outcome count must match the recorded
// golden bit for bit.
func TestMemctlReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the memctl soak is slow; skipped under -short")
	}
	buf, err := os.ReadFile("testdata/golden_replay_memctl.json")
	if err != nil {
		t.Fatal(err)
	}
	var want replayGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	p, ok := scenario.LookupPreset("memctlsoak")
	if !ok {
		t.Fatal("preset memctlsoak missing")
	}
	s := p.Build()
	s.Seed = 1
	s.SetBudget(8000)
	j := telemetry.NewJournal(1 << 15)
	ctl, err := memctl.New(exp.MemctlSoakConfig(s.Code, j))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(context.Background(), s, scenario.Opts{Journal: j, Controller: ctl}); err != nil {
		t.Fatal(err)
	}
	if d := j.Dropped(); d != 0 {
		t.Fatalf("recording journal dropped %d events", d)
	}

	spec := &scenario.Spec{Name: "replay", Kind: scenario.KindReplay,
		Memctl: &scenario.MemctlSpec{Enabled: true, RegionLines: 64}}
	rj := telemetry.NewJournal(1 << 15)
	rctl, err := memctl.New(exp.MemctlSoakConfig("poly-m2005", rj))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), spec, scenario.Opts{
		Journal: rj, Controller: rctl, ReplayEvents: j.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq == nil {
		t.Fatal("closed-loop replay produced no sequential result")
	}
	got := replayGolden{Steps: len(res.Schedule), Seq: *res.Seq, Counts: res.Campaign.Counts}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(&got, "", "  ")
		t.Errorf("closed-loop replay diverged from golden:\n%s", gotJSON)
	}
}

// TestReplayWorkerInvariance: a campaign replay shards its schedule
// like any campaign, so its counts must not depend on the worker count.
func TestReplayWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("storm recording is slow; skipped under -short")
	}
	events := recordStorm(t, 2000, 7)
	var counts []map[string]int64
	for _, workers := range []int{1, 8} {
		spec := &scenario.Spec{Name: "replay-workers", Kind: scenario.KindReplay}
		res, err := scenario.Run(context.Background(), spec, scenario.Opts{Workers: workers, ReplayEvents: events})
		if err != nil {
			t.Fatal(err)
		}
		if res.Campaign.Completed != len(res.Schedule) {
			t.Fatalf("workers=%d: completed %d of %d steps", workers, res.Campaign.Completed, len(res.Schedule))
		}
		counts = append(counts, res.Campaign.Counts)
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("replay counts differ across worker counts:\n1: %v\n8: %v", counts[0], counts[1])
	}
}
