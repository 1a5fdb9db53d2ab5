package main

import "testing"

// A span's self time is its duration less its direct children's, and
// the mirror's own op spans are left out of the layer total.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op.trial", parent: -1, calls: 1, start: 0, end: 100},
		{name: "poly.decode", parent: 0, calls: 1, start: 10, end: 60},
		{name: "mac.sum", parent: 1, calls: 4, start: 20, end: 40},
		{name: "dram.from_burst", parent: 0, calls: 1, start: 70, end: 90},
	}}
	want := []int64{30, 30, 20, 20}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got, want[i])
		}
	}
	if got := tr.perCall("mac.sum"); len(got) != 1 || got[0] != 5 {
		t.Errorf("mac.sum per call %v, want [5]", got)
	}
	if got := tr.layerSelfNs(0); got != 70 {
		t.Errorf("layer self time %d, want 70", got)
	}
	if got := tr.layerSelfNs(3); got != 20 {
		t.Errorf("layer self time from span 3: %d, want 20", got)
	}
}

// A nil tracer records nothing, so mirrors run the same calls untraced.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	tr.setOp(1)
	id := tr.begin("x", 1)
	tr.rename(id, "y")
	tr.end(id)
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); got != 9.9 {
		t.Errorf("p99 of {0,10} = %v, want 9.9", got)
	}
}
