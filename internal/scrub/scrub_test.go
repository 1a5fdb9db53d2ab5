package scrub

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

var key = [16]byte{7, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

func setup(t testing.TB, lines int) (*poly.Code, *dram.Module, [][poly.LineBytes]byte) {
	t.Helper()
	code := poly.MustNew(poly.ConfigM2005(), mac.MustSipHash(key, 40))
	mod := dram.NewModule(lines)
	truth := make([][poly.LineBytes]byte, lines)
	r := rand.New(rand.NewSource(1))
	for i := range truth {
		r.Read(truth[i][:])
		mod.WriteBurst(i, code.ToBurst(code.EncodeLine(&truth[i])))
	}
	return code, mod, truth
}

func TestNewValidation(t *testing.T) {
	code, mod, _ := setup(t, 1)
	if _, err := New(nil, mod, DefaultPolicy()); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := New(code, nil, DefaultPolicy()); err == nil {
		t.Error("nil store accepted")
	}
}

func TestSweepCleanRegion(t *testing.T) {
	code, mod, _ := setup(t, 32)
	s, err := New(code, mod, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st, events := s.Sweep()
	if st.Clean != 32 || st.Corrected != 0 || st.DUE != 0 || len(events) != 0 {
		t.Fatalf("clean sweep: %+v", st)
	}
}

// A sweep corrects latched flips and, with rewriting on, heals them so
// the next sweep is clean.
func TestSweepHealsWeakCells(t *testing.T) {
	code, mod, truth := setup(t, 32)
	for _, line := range []int{3, 9, 20} {
		if err := mod.AddWeakCell(line, 2, 17); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := New(code, mod, DefaultPolicy())
	st, events := s.Sweep()
	if st.Corrected != 3 {
		t.Fatalf("corrected %d lines, want 3: %+v", st.Corrected, st)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Verify the healed data is right.
	for _, line := range []int{3, 9, 20} {
		burst := mod.ReadBurst(line)
		data, rep := code.DecodeLine(code.FromBurst(&burst))
		if rep.Status != poly.StatusClean || data != truth[line] {
			t.Fatalf("line %d not healed: %+v", line, rep)
		}
	}
	st2, _ := s.Sweep()
	if st2.Clean != 32 {
		t.Fatalf("second sweep not clean: %+v", st2)
	}
	if s.TotalCorrected() != 3 {
		t.Fatalf("TotalCorrected = %d", s.TotalCorrected())
	}
}

// Without rewriting, the flips persist and every sweep pays corrections.
func TestSweepWithoutRewrite(t *testing.T) {
	code, mod, _ := setup(t, 8)
	_ = mod.AddWeakCell(2, 0, 5)
	s, _ := New(code, mod, Policy{RewriteCorrected: false})
	for sweep := 0; sweep < 3; sweep++ {
		st, _ := s.Sweep()
		if st.Corrected != 1 {
			t.Fatalf("sweep %d corrected %d, want 1", sweep, st.Corrected)
		}
	}
	if s.TotalCorrected() != 3 {
		t.Fatalf("TotalCorrected = %d", s.TotalCorrected())
	}
}

// A dead device is ChipKill: every line corrects through the ChipKill
// hypothesis and the per-model log reflects it. Rewrites cannot heal a
// device fault, so corrections persist sweep over sweep.
func TestSweepClassifiesChipKill(t *testing.T) {
	code, mod, truth := setup(t, 8)
	if err := mod.KillDevice(6); err != nil {
		t.Fatal(err)
	}
	s, _ := New(code, mod, DefaultPolicy())
	st, _ := s.Sweep()
	if st.DUE != 0 {
		t.Fatalf("DUEs under a single device failure: %+v", st)
	}
	if st.PerModel[poly.ModelChipKill] < st.Corrected/2 {
		t.Fatalf("ChipKill classification missing: %+v", st.PerModel)
	}
	// Ground truth intact through the corrections.
	for i := range truth {
		burst := mod.ReadBurst(i)
		data, rep := code.DecodeLine(code.FromBurst(&burst))
		if rep.Status == poly.StatusUncorrectable || data != truth[i] {
			t.Fatalf("line %d wrong under dead device", i)
		}
	}
}

func TestReplacementThreshold(t *testing.T) {
	code, mod, _ := setup(t, 4)
	s, _ := New(code, mod, Policy{RewriteCorrected: false, ReplacementThreshold: 2})
	_ = mod.AddWeakCell(0, 0, 0)
	_ = mod.AddWeakCell(1, 0, 0)
	if s.ReplacementDue() {
		t.Fatal("replacement due before any corrections")
	}
	s.Sweep()
	if !s.ReplacementDue() {
		t.Fatalf("replacement not flagged after %d corrections", s.TotalCorrected())
	}
}

func TestSweepCountsDUE(t *testing.T) {
	code, mod, _ := setup(t, 4)
	// Two dead devices exceed every fault model.
	_ = mod.KillDevice(1)
	_ = mod.KillDevice(5)
	_ = mod.AddStuckPin(33, 1)
	s, _ := New(code, mod, DefaultPolicy())
	st, _ := s.Sweep()
	if st.DUE == 0 {
		t.Fatalf("expected DUEs under two dead devices + stuck pin: %+v", st)
	}
	if s.TotalDUE() != st.DUE {
		t.Fatal("TotalDUE mismatch")
	}
}

// A cancelled context stops the sweep mid-region with partial counts.
func TestSweepContextCancellation(t *testing.T) {
	code, mod, _ := setup(t, 16)
	s, _ := New(code, mod, DefaultPolicy())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, events, err := s.SweepContext(ctx)
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if st.Clean+st.Corrected+st.DUE != 0 || len(events) != 0 {
		t.Fatalf("pre-cancelled sweep scanned lines: %+v", st)
	}
}

// Run patrols sweep after sweep until cancelled; counts accumulate
// across sweeps and the OnSweep hook sees every one of them.
func TestRunPatrolsUntilCancelled(t *testing.T) {
	code, mod, _ := setup(t, 8)
	_ = mod.AddWeakCell(2, 0, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hookSweeps int
	policy := Policy{
		RewriteCorrected: false, // the weak cell re-fires every sweep
		OnSweep: func(sweep int, st Stats, events []Event) {
			hookSweeps = sweep
			if st.Corrected != 1 || len(events) != 1 {
				t.Errorf("sweep %d: corrected=%d events=%d", sweep, st.Corrected, len(events))
			}
			if sweep == 5 {
				cancel()
			}
		},
	}
	s, _ := New(code, mod, policy)
	agg := s.Run(ctx, 0)
	if agg.Sweeps != 5 || hookSweeps != 5 {
		t.Fatalf("run stopped after %d sweeps (hook saw %d), want 5", agg.Sweeps, hookSweeps)
	}
	if agg.Corrected != 5 || s.TotalCorrected() != 5 {
		t.Fatalf("corrected: agg=%d lifetime=%d, want 5", agg.Corrected, s.TotalCorrected())
	}
}

// recordingStore counts write-backs per line and logs them in order, so
// tests can prove which lines the scrubber touched and with what.
type recordingStore struct {
	*dram.Module
	writes map[int]int
	log    []writeBack
}

type writeBack struct {
	line  int
	burst dram.Burst
}

func (r *recordingStore) WriteBurst(i int, b dram.Burst) {
	r.writes[i]++
	r.log = append(r.log, writeBack{i, b})
	r.Module.WriteBurst(i, b)
}

// A DUE line must never be written back: the raw burst is evidence, and
// rewriting a failed decode would turn a detected error into an SDC.
func TestRunNeverWritesBackDUE(t *testing.T) {
	code, mod, _ := setup(t, 4)
	// Two dead devices + a stuck pin exceed every fault model.
	_ = mod.KillDevice(1)
	_ = mod.KillDevice(5)
	_ = mod.AddStuckPin(33, 1)
	store := &recordingStore{Module: mod, writes: map[int]int{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	due := map[int]bool{}
	corrected := map[int]bool{}
	policy := DefaultPolicy() // rewriting ON: corrected lines may change, DUE lines must not
	policy.OnSweep = func(sweep int, st Stats, events []Event) {
		if st.DUE == 0 {
			t.Errorf("sweep %d: no DUEs under a double device failure", sweep)
		}
		for _, ev := range events {
			if ev.Report.Status == poly.StatusUncorrectable {
				due[ev.Line] = true
			} else {
				corrected[ev.Line] = true
			}
		}
		if sweep == 3 {
			cancel()
		}
	}
	s, _ := New(code, store, policy)
	agg := s.Run(ctx, 0)
	if agg.DUE == 0 || len(due) == 0 {
		t.Fatalf("patrol saw no DUEs: %+v", agg)
	}
	for line, n := range store.writes {
		if !corrected[line] {
			t.Fatalf("line %d written back %d times without ever being corrected", line, n)
		}
	}
	for line := range due {
		if !corrected[line] && store.writes[line] > 0 {
			t.Fatalf("DUE-only line %d was written back", line)
		}
	}
}

// Attaching a journal must not change what a patrol does: two identical
// faulted modules, one patrolled with a journal and one without, must
// give the same statistics, the same events and the same write-backs,
// sweep after sweep.
func TestJournalDoesNotChangeSweep(t *testing.T) {
	type patrol struct {
		stats  []Stats
		events [][]Event
		writes []writeBack
	}
	run := func(j *telemetry.Journal) patrol {
		code, mod, _ := setup(t, 64)
		for _, c := range [][3]int{{3, 2, 17}, {9, 0, 0}, {40, 15, 39}, {41, 7, 8}, {41, 7, 9}} {
			if err := mod.AddWeakCell(c[0], c[1], c[2]); err != nil {
				t.Fatal(err)
			}
		}
		mod.Hammer(22, 12, rand.New(rand.NewSource(5)))
		mod.Hammer(57, 12, rand.New(rand.NewSource(6)))
		store := &recordingStore{Module: mod, writes: map[int]int{}}
		policy := DefaultPolicy()
		policy.Journal = j
		s, err := New(code, store, policy)
		if err != nil {
			t.Fatal(err)
		}
		var p patrol
		for sweep := 0; sweep < 2; sweep++ {
			st, events := s.Sweep()
			p.stats = append(p.stats, st)
			p.events = append(p.events, events)
		}
		p.writes = store.log
		return p
	}
	bare := run(nil)
	journal := telemetry.NewJournal(256)
	journaled := run(journal)
	if st := bare.stats[0]; st.Clean == 0 || st.Corrected == 0 || st.DUE == 0 {
		t.Fatalf("first sweep %+v does not cover clean, corrected and DUE lines", st)
	}
	if len(bare.writes) == 0 {
		t.Fatal("no corrected line was written back")
	}
	if journal.Len() == 0 {
		t.Fatal("the journaled patrol recorded no finding")
	}
	if !reflect.DeepEqual(bare.stats, journaled.stats) {
		t.Errorf("stats: without journal %+v, with %+v", bare.stats, journaled.stats)
	}
	if !reflect.DeepEqual(bare.events, journaled.events) {
		t.Errorf("events differ:\n without journal %+v\n with %+v", bare.events, journaled.events)
	}
	if !reflect.DeepEqual(bare.writes, journaled.writes) {
		t.Errorf("write-backs differ: %d without journal, %d with", len(bare.writes), len(journaled.writes))
	}
}

// A journaling scrubber files one scrub-finding event per non-clean
// line, carrying the corrupted word's remainder.
func TestSweepJournalsFindings(t *testing.T) {
	code, mod, _ := setup(t, 16)
	for _, line := range []int{4, 11} {
		if err := mod.AddWeakCell(line, 1, 9); err != nil {
			t.Fatal(err)
		}
	}
	policy := DefaultPolicy()
	policy.Journal = telemetry.NewJournal(256)
	s, err := New(code, mod, policy)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Sweep()
	if st.Corrected != 2 {
		t.Fatalf("corrected %d, want 2", st.Corrected)
	}
	events := policy.Journal.Drain()
	if len(events) != 2 {
		t.Fatalf("journal events = %d, want 2", len(events))
	}
	wantLines := map[int]bool{4: true, 11: true}
	for _, e := range events {
		if e.Kind != telemetry.KindScrubFinding || e.Source != "scrub" {
			t.Fatalf("unexpected event: %+v", e)
		}
		if !wantLines[e.Index] {
			t.Fatalf("finding on unexpected line %d", e.Index)
		}
		delete(wantLines, e.Index)
		da, ok := e.Detail.(*telemetry.DecodeAnomaly)
		if !ok || da.Status != "corrected" || len(da.Words) == 0 {
			t.Fatalf("finding payload wrong: %+v", e.Detail)
		}
	}
	// The healed module must journal nothing on the next sweep.
	if _, _ = s.Sweep(); policy.Journal.Len() != 0 {
		t.Fatalf("clean re-sweep journaled %d events", policy.Journal.Len())
	}
}

// The adaptive-cadence hook overrides the fixed pause every cycle: with
// a hook returning zero the patrol sweeps back to back even though the
// fixed interval is an hour, and the hook is consulted once per sweep.
func TestAdaptiveIntervalHookOverridesPause(t *testing.T) {
	code, mod, _ := setup(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var consulted int
	policy := Policy{
		Interval: func() time.Duration {
			consulted++
			return 0
		},
		OnSweep: func(sweep int, st Stats, events []Event) {
			if sweep == 5 {
				cancel()
			}
		},
	}
	s, _ := New(code, mod, policy)
	agg := s.Run(ctx, time.Hour)
	if agg.Sweeps != 5 {
		t.Fatalf("sweeps = %d, want 5 (hook should override the 1h pause)", agg.Sweeps)
	}
	if consulted != 5 {
		t.Fatalf("hook consulted %d times, want once per sweep", consulted)
	}
}
