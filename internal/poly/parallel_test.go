package poly

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"polyecc/internal/mac"
)

// decodeConcurrently decodes lines on plain goroutines that share c, the
// way campaign workers share one Code: each worker owns a Scratch and,
// when c carries a latency probe, a fork of it. Results are indexed like
// the input.
func decodeConcurrently(c *Code, workers int, lines []Line) []Result {
	results := make([]Result, len(lines))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			code := c
			if lp := c.Latency(); lp != nil {
				code = c.WithLatency(lp.Fork())
			}
			s := code.NewScratch()
			for i := w; i < len(lines); i += workers {
				data, rep := code.DecodeLineScratch(lines[i], s)
				results[i] = Result{Index: i, Data: data, Report: rep}
			}
		}(w)
	}
	wg.Wait()
	return results
}

// Goroutines decoding through one shared Code must reproduce the serial
// decodes exactly.
func TestParallelDecoderMatchesSerial(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(1))
	const n = 64
	lines := make([]Line, n)
	truth := make([][LineBytes]byte, n)
	for i := range lines {
		truth[i] = randLine(r)
		lines[i] = c.EncodeLine(&truth[i])
		if i%3 == 0 {
			lines[i].Words[r.Intn(8)] = lines[i].Words[0].FlipBit(r.Intn(80))
		}
		if i%3 == 1 {
			// Symbol error.
			w := r.Intn(8)
			s := r.Intn(10)
			old := lines[i].Words[w].Field(s*8, 8)
			lines[i].Words[w] = lines[i].Words[w].WithField(s*8, 8, old^uint64(1+r.Intn(255)))
		}
	}
	results := decodeConcurrently(c, runtime.GOMAXPROCS(0), lines)
	if len(results) != n {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		wantData, wantRep := c.DecodeLine(lines[i])
		if res.Data != wantData || res.Report != wantRep {
			t.Fatalf("line %d: parallel result differs from serial", i)
		}
	}
}

// Race check: the same Code shared by many goroutines (run with -race).
func TestParallelDecoderRace(t *testing.T) {
	c := MustNew(ConfigM2005(), mac.MustSipHash(testKey, 40))
	r := rand.New(rand.NewSource(2))
	lines := make([]Line, 32)
	for i := range lines {
		d := randLine(r)
		lines[i] = c.EncodeLine(&d)
		lines[i].Words[0] = lines[i].Words[0].FlipBit(i % 80)
	}
	for round := 0; round < 4; round++ {
		for _, res := range decodeConcurrently(c, 8, lines) {
			if res.Report.Status == StatusUncorrectable {
				t.Fatal("single-bit flip uncorrectable")
			}
		}
	}
}
