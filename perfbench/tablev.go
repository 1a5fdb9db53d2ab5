package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/rowhammer"
)

// tablev: the Table V cross-code comparison as registry decodes of
// faulted bursts generated in setup, the way exp.TableVWith and
// exp.RowhammerRowWith generate them.
const (
	tvTrials    = 1000 // cachelines per fault-model row
	tvDecTrials = 50   // DEC rows, capped like exp.TableV's decTrials
	tvPatterns  = 1000 // rowhammer patterns
	tvSetups    = 3
)

var (
	// tableVCodes are the decoded schemes: the four 8-bit Table V codes
	// and the 16-bit-symbol Polymorphic instance.
	tableVCodes = []string{"poly-m2005-zr", "rs-sddc", "unity", "bamboo", "poly-m131049"}
	// constructedCodes are the codes whose construction time traced runs
	// report: the Table V set plus the codec the other workloads use.
	constructedCodes = []string{"poly-m2005", "poly-m2005-zr", "rs-sddc", "unity", "bamboo", "poly-m131049"}
)

// tablev_pins.json holds every cell of the default and held-out seeds as
// the program's Table V experiment computed them: per "row/code", the
// corrected, DUE and SDC counts and the Polymorphic iteration total.
//
//go:embed tablev_pins.json
var pinsJSON []byte

// tvCell is one (row, code) cell's tally.
type tvCell struct {
	OK, DUE, SDC, Iters int64
}

// tvItem is one faulted burst a pass decodes.
type tvItem struct {
	code  int // index into tvState.codes
	cell  int
	truth int // index into tvState.truth
	burst dram.Burst
}

type tvState struct {
	codes   []linecode.Code
	poly    []bool
	cells   []string // "row/code" labels
	inModel []bool   // per cell: an in-model row of a Polymorphic code
	truth   [][linecode.LineBytes]byte
	items   []tvItem
}

// tvSetup builds the five codecs and every faulted burst.
func tvSetup(seed int64) func() (*tvState, error) {
	return func() (*tvState, error) {
		st := &tvState{}
		for _, name := range tableVCodes {
			c, err := linecode.New(name)
			if err != nil {
				return nil, err
			}
			_, isPoly := c.(linecode.Poly)
			st.codes = append(st.codes, c)
			st.poly = append(st.poly, isPoly)
		}
		g8 := dram.WordGeometry{SymbolBits: 8}
		for _, inj := range faults.Models(g8) {
			st.modelRow("8b", inj, []int{0, 1, 2, 3}, seed)
		}
		st.rowhammerRow(seed, []int{0, 1, 2, 3})
		g16 := dram.WordGeometry{SymbolBits: 16}
		for _, inj := range []faults.Injector{faults.ChipKill{Geometry: g16}, faults.SSC{Geometry: g16}, faults.DEC{Geometry: g16}} {
			st.modelRow("16b", inj, []int{4}, seed+1)
		}
		return st, nil
	}
}

func (st *tvState) addCells(row string, codes []int, inModel bool) int {
	first := len(st.cells)
	for _, ci := range codes {
		st.cells = append(st.cells, row+"/"+tableVCodes[ci])
		st.inModel = append(st.inModel, inModel && st.poly[ci])
	}
	return first
}

// modelRow generates one fault-model row as exp's runModelRow does: a
// truth line and a fault sub-seed per trial, the same physical fault
// injected into every code's burst.
func (st *tvState) modelRow(sym string, inj faults.Injector, codes []int, seed int64) {
	n := tvTrials
	if inj.Name() == "DEC" {
		n = tvDecTrials
	}
	first := st.addCells(sym+" "+inj.Name(), codes, true)
	for trial := 0; trial < n; trial++ {
		var data [linecode.LineBytes]byte
		rand.New(rand.NewSource(seed + int64(trial)*7919)).Read(data[:])
		st.truth = append(st.truth, data)
		for k, ci := range codes {
			burst := st.codes[ci].Encode(&data)
			inj.Inject(rand.New(rand.NewSource(seed^int64(trial)*104729)), &burst)
			st.items = append(st.items, tvItem{code: ci, cell: first + k, truth: len(st.truth) - 1, burst: burst})
		}
	}
}

// rowhammerRow generates the rowhammer row as exp.RowhammerRowWith does.
func (st *tvState) rowhammerRow(seed int64, codes []int) {
	first := st.addCells("8b Rowhammer", codes, false)
	gen := rowhammer.New(seed, dram.WordGeometry{SymbolBits: 8})
	r := rand.New(rand.NewSource(seed))
	for p := 0; p < tvPatterns; p++ {
		var data [linecode.LineBytes]byte
		r.Read(data[:])
		st.truth = append(st.truth, data)
		mask := gen.Next()
		for k, ci := range codes {
			burst := st.codes[ci].Encode(&data)
			burst.Xor(&mask)
			st.items = append(st.items, tvItem{code: ci, cell: first + k, truth: len(st.truth) - 1, burst: burst})
		}
	}
}

// decode runs one registry decode and tallies its cell.
func (st *tvState) decode(it *tvItem, cells []tvCell) int {
	b := it.burst
	got, outcome, iters := st.codes[it.code].Decode(&b)
	c := &cells[it.cell]
	switch {
	case outcome == linecode.DUE:
		c.DUE++
	case got != st.truth[it.truth]:
		c.SDC++
	default:
		c.OK++
	}
	if outcome == linecode.OK && st.poly[it.code] {
		c.Iters += int64(iters)
	}
	return iters
}

// pass decodes every item once.
func (st *tvState) pass() []tvCell {
	cells := make([]tvCell, len(st.cells))
	for i := range st.items {
		st.decode(&st.items[i], cells)
	}
	return cells
}

// checkCells holds a pass to the pins (default and held-out seeds) and,
// on any seed, to the Polymorphic coverage invariant: every in-model
// fault corrected, and no Polymorphic SDC anywhere.
func (st *tvState) checkCells(ck *checker, seed int64, cells []tvCell) {
	pins := map[string]map[string]tvCell{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		ck.fail(0, "tablev pins: %v", err)
	}
	want, pinned := pins[strconv.FormatInt(seed, 10)]
	for i, c := range cells {
		label := st.cells[i]
		if pinned && want[label] != c {
			ck.fail(c.OK+c.DUE+c.SDC, "tablev %s: got %+v, pinned %+v", label, c, want[label])
		}
		if st.inModel[i] && (c.DUE > 0 || c.SDC > 0) {
			ck.fail(c.DUE+c.SDC, "tablev %s: Polymorphic left %d DUE and %d SDC on an in-model row", label, c.DUE, c.SDC)
		}
		if st.poly[codeOf(label)] && c.SDC > 0 {
			ck.fail(c.SDC, "tablev %s: Polymorphic SDC", label)
		}
	}
	if pinned && len(want) != len(cells) {
		ck.fail(0, "tablev: %d pinned cells, %d measured", len(want), len(cells))
	}
}

// codeOf returns the code index of a "row/code" label.
func codeOf(label string) int {
	for i, c := range tableVCodes {
		if len(label) > len(c) && label[len(label)-len(c)-1:] == "/"+c {
			return i
		}
	}
	return -1
}

func runTableV(cfg config) (*result, error) {
	st, setup, err := timeSetup(tvSetups, tvSetup(cfg.seed))
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	var first, last []tvCell
	t, err := passLoop{
		inputs: 1,
		budget: cfg.budget(),
		pass: func(int) (int64, error) {
			last = st.pass()
			return int64(len(st.items)), nil
		},
		check: func(_ int, isFirst bool) {
			if isFirst {
				first = last
				st.checkCells(ck, cfg.seed, first)
			} else if fmt.Sprint(last) != fmt.Sprint(first) {
				ck.fail(int64(len(st.items)), "tablev: a repeated pass gave different cells")
			}
		},
	}.run()
	if err != nil {
		return nil, err
	}

	var polyOK, polyIters int64
	fmt.Printf("tablev simulated cells (corrected/DUE/SDC, Polymorphic iterations), seed %d:\n", cfg.seed)
	for i, c := range first {
		fmt.Printf("  %-30s %5d %5d %5d %9d\n", st.cells[i], c.OK, c.DUE, c.SDC, c.Iters)
		if st.poly[codeOf(st.cells[i])] {
			polyOK += c.OK
			polyIters += c.Iters
		}
	}
	m := t.hostMetrics(setup)
	m["iters_per_correction"] = metric{float64(polyIters) / float64(polyOK), "trials"}
	return ck.result(t.attempts, m), nil
}

// mirrorTableV is the tablev part of a traced run: the same registry
// decodes, one span each.
func mirrorTableV(cfg config, lm *layerMetrics, primary bool) error {
	tr := newTracer("tablev")
	// Construction of every registry code the workloads build.
	for _, name := range constructedCodes {
		sp := tr.begin("linecode.new", 1)
		start := time.Now()
		if _, err := linecode.New(name); err != nil {
			return err
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(sp)
		tr.rename(sp, "linecode.new."+name)
		lm.set("linecode.new_ms."+name, ms, "ms", 1)
	}
	st, err := tvSetup(cfg.seed)()
	if err != nil {
		return err
	}
	spanNames := make([]string, len(tableVCodes))
	for i, c := range tableVCodes {
		spanNames[i] = "linecode.decode." + c
	}
	mirror := func(tr *tracer) []tvCell {
		cells := make([]tvCell, len(st.cells))
		for i := range st.items {
			it := &st.items[i]
			tr.setOp(int64(i))
			sp := tr.begin(spanNames[it.code], 1)
			st.decode(it, cells)
			tr.end(sp)
		}
		return cells
	}
	ops := int64(len(st.items))
	if primary {
		var refNs []float64
		_, _, _ = timeLoop(referenceBudget(cfg, primary), 1, func(int) error {
			start := time.Now()
			st.checkCells(lm.ck, cfg.seed, st.pass())
			refNs = append(refNs, float64(time.Since(start).Nanoseconds())/float64(ops))
			lm.attempted += ops
			return nil
		})
		from := len(tr.spans)
		pairs, off, on, _ := pairedRuns(cfg.budget()*2/3, tr, func(_ int, t *tracer) error {
			st.checkCells(lm.ck, cfg.seed, mirror(t))
			return nil
		})
		lm.overhead(median(refNs), pairs, ops, off, on, tr, from)
	} else {
		st.checkCells(lm.ck, cfg.seed, mirror(tr))
	}

	// Allocations per decode, counted per code over one pass of its items.
	var evals, decodes int64
	for ci, name := range tableVCodes {
		lm.spanQuantiles(tr, spanNames[ci], "linecode.decode_ns", "."+name, 50, 99)
		cells := make([]tvCell, len(st.cells))
		var n int64
		a0 := mallocs()
		for i := range st.items {
			if st.items[i].code == ci {
				iters := st.decode(&st.items[i], cells)
				n++
				if st.poly[ci] {
					evals += 1 + int64(iters)
				}
			}
		}
		lm.set("linecode.allocs_per_decode."+name, float64(mallocs()-a0)/float64(n), "count", n)
		decodes += n
	}
	lm.set("mac.evals_per_op", float64(evals)/float64(decodes), "count", decodes)

	// Rowhammer mask generation, as the rowhammer row and the storm
	// clients draw it.
	gen := rowhammer.New(cfg.seed, dram.WordGeometry{SymbolBits: 8})
	for i := 0; i < 2000; i++ {
		sp := tr.begin("rowhammer.mask", 1)
		mask := gen.Next()
		tr.end(sp)
		sink += uint64(mask[0])
	}
	lm.spanQuantiles(tr, "rowhammer.mask", "rowhammer.mask_ns", "", 50)
	lm.keep(tr)
	return nil
}
