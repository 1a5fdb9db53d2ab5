package scenario_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// addSpecSeeds seeds a fuzz corpus with every checked-in spec file.
func addSpecSeeds(f *testing.F) {
	f.Helper()
	for _, pattern := range []string{"testdata/specs/*.json", "../../examples/scenarios/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			buf, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}
}

// FuzzParse: whatever Parse accepts must marshal to its canonical form
// and reparse to the same form — the -dump-spec round trip holds for
// every spec the engine will run, not only the checked-in ones.
func FuzzParse(f *testing.F) {
	addSpecSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := scenario.Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		buf, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := scenario.Parse(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("own marshal does not reparse: %v\n%s", err, buf)
		}
		buf2, err := again.MarshalIndent()
		if err != nil {
			t.Fatalf("remarshal: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("marshal is not a fixed point:\n%s\n---\n%s", buf, buf2)
		}
	})
}

// FuzzLoadSchedule: an arbitrary journal file must load into a replay
// schedule or fail with an error — never panic — and every step comes
// from one decode-anomaly record.
func FuzzLoadSchedule(f *testing.F) {
	addSpecSeeds(f)
	p, _ := scenario.LookupPreset("stormsoak")
	s := p.Build()
	s.SetBudget(8)
	j := telemetry.NewJournal(256)
	if _, err := scenario.Run(context.Background(), s, scenario.Opts{Workers: 1, Journal: j}); err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if err := telemetry.WriteJSONL(&rec, j.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		events, _ := telemetry.ReadJSONL(bytes.NewReader(in))
		steps := scenario.LoadSchedule(events)
		if len(steps) > len(events) {
			t.Fatalf("%d steps from %d events", len(steps), len(events))
		}
	})
}
