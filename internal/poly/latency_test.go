package poly

import (
	"testing"

	"polyecc/internal/latency"
	"polyecc/internal/wideint"
)

// An attached latency probe must classify decode timings by outcome and
// time encodes, while staying allocation-free on the scratch hot path.
func TestLatencyAttachment(t *testing.T) {
	base := testCodeM2005(t)
	coll := latency.NewCollector()
	c := base.WithLatency(coll.Probe())
	if base.Latency() != nil {
		t.Fatal("WithLatency must not mutate the receiver")
	}
	s := c.NewScratch()

	var data [LineBytes]byte
	for i := range data {
		data[i] = byte(i * 7)
	}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		l := c.EncodeLineScratch(&data, s)
		if _, rep := c.DecodeLineScratch(l, s); rep.Status != StatusClean {
			t.Fatalf("clean decode reported %v", rep.Status)
		}
		// Single-symbol corruption: correctable under SSC.
		bad := Line{Words: append([]wideint.U192(nil), l.Words...)}
		bad.Words[0].W0 ^= 0xff
		if _, rep := c.DecodeLineScratch(bad, s); rep.Status != StatusCorrected {
			t.Fatalf("corrupted decode reported %v", rep.Status)
		}
	}

	pl := coll.Payload()
	if got := pl.Ops["encode"].Count; got != rounds {
		t.Fatalf("encode count=%d want %d", got, rounds)
	}
	if got := pl.Ops["clean"].Count; got != rounds {
		t.Fatalf("clean count=%d want %d", got, rounds)
	}
	if got := pl.Ops["corrected"].Count; got != rounds {
		t.Fatalf("corrected count=%d want %d", got, rounds)
	}
	if pl.Ops["clean"].P99 <= 0 || pl.Ops["corrected"].P50 <= 0 {
		t.Fatalf("percentiles missing: %+v", pl.Ops)
	}

	// The attached path must stay 0 allocs/op — the bench-gate contract.
	l := c.EncodeLineScratch(&data, s)
	if n := testing.AllocsPerRun(200, func() {
		c.EncodeLineScratch(&data, s)
		c.DecodeLineScratch(l, s)
	}); n != 0 {
		t.Fatalf("latency-attached encode+clean-decode allocs/op = %v, want 0", n)
	}
}

// Workers sharing a probed Code each decode through a fork of the probe:
// all observations land in the shared collector with no race (run under
// -race) and the decode count must be exact.
func TestParallelDecoderLatencyFork(t *testing.T) {
	base := testCodeM2005(t)
	coll := latency.NewCollector()
	c := base.WithLatency(coll.Probe())

	const n = 200
	lines := make([]Line, n)
	var data [LineBytes]byte
	for i := range lines {
		data[0] = byte(i)
		lines[i] = c.EncodeLine(&data)
	}
	results := decodeConcurrently(c, 4, lines)
	for _, r := range results {
		if r.Err != nil || r.Report.Status != StatusClean {
			t.Fatalf("line %d: err=%v status=%v", r.Index, r.Err, r.Report.Status)
		}
	}
	if got := coll.Payload().Ops["clean"].Count; got != n {
		t.Fatalf("collector saw %d clean decodes, want %d", got, n)
	}
}
