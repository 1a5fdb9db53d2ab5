package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"

	"polyecc/internal/exp"
	"polyecc/internal/linecode"
)

// TestPinsMatchTableV recomputes tablev_pins.json with the program's own
// Table V experiment, which generates its inputs independently of the
// benchmark's setup: the pins are what exp reports at the benchmark's
// row sizes, for the default and the held-out seed.
func TestPinsMatchTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table V experiment twice")
	}
	var pins map[string]map[string]tvCell
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	names := tableVCodes[:4]
	codes := make([]linecode.Code, len(names))
	for i, n := range names {
		codes[i] = linecode.MustNew(n)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		res := exp.TableVWith(tvTrials, tvDecTrials, seed, codes)
		rows := append(res.Rows, exp.RowhammerRowWith(tvPatterns, seed, codes))
		got := map[string]tvCell{}
		for _, row := range rows {
			n := float64(tvTrials)
			switch row.Model {
			case "DEC":
				n = tvDecTrials
			case "Rowhammer":
				n = tvPatterns
			}
			for ci, c := range row.Cells {
				code := names[ci]
				if row.SymbolBits == 16 {
					code = "poly-m131049"
				}
				cell := tvCell{OK: round(c.Corrected * n), DUE: round(c.DUE * n), SDC: round(c.SDC * n)}
				if code == "poly-m2005-zr" || code == "poly-m131049" {
					cell.Iters = round(row.Iterations.Mean() * float64(row.Iterations.N()))
				}
				got[fmt.Sprintf("%db %s/%s", row.SymbolBits, row.Model, code)] = cell
			}
		}
		want := pins[strconv.FormatInt(seed, 10)]
		if len(got) != len(want) {
			t.Errorf("seed %d: exp reports %d cells, %d pinned", seed, len(got), len(want))
		}
		for label, w := range want {
			if got[label] != w {
				t.Errorf("seed %d %s: exp reports %+v, pinned %+v", seed, label, got[label], w)
			}
		}
	}
}

func round(x float64) int64 { return int64(math.Round(x)) }
