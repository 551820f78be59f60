package main

import (
	"math"
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestCoveredCountsOverlapOnceAndClips(t *testing.T) {
	kids := []span{sp(5, 10), sp(8, 12), sp(20, 25), sp(-5, 2), sp(95, 120), sp(30, 30)}
	// [0,2) + [5,12) + [20,25) + [95,100) inside the parent [0,100).
	if got := covered(0, 100, kids); got != 2+7+5+5 {
		t.Errorf("covered = %d, want 19", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("no children covered %d", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	parent := sp(0, 1000)
	kids := []span{sp(100, 200), sp(150, 250), sp(900, 1100)}
	// Children cover [100,250) and [900,1000): 250 of 1000.
	if got := selfTime(parent, kids, 1); got != 750 {
		t.Errorf("self = %d, want 750", got)
	}
	// Sampled 1-in-2, the same children stand for twice the time.
	if got := selfTime(parent, kids, 2); got != 500 {
		t.Errorf("sampled self = %d, want 500", got)
	}
}

func TestSplitCellTakesClockCostOffSampledSpans(t *testing.T) {
	cell := sp(0, 10_000)
	kids := []span{
		{Cat: "btb", Start: 100, End: 130},
		{Cat: "btb", Start: 200, End: 205}, // shorter than the clock: counts 0
		{Cat: "predictor", Start: 300, End: 320},
	}
	got := splitCell(cell, kids, 10, 10)
	want := cellSplit{total: 10_000, btb: 10 * 20, dir: 10 * 10, self: 10_000 - 10*30}
	if got != want {
		t.Errorf("split = %+v, want %+v", got, want)
	}
}

func TestRecorderNestsAndFreesLanes(t *testing.T) {
	r := newRecorder()
	a := r.begin("a", "x", 0)
	b := r.begin("b", "x", 0)
	c := r.nest(a, "c", "y")
	c.end()
	a.end()
	d := r.begin("d", "x", 0) // reuses a's lane
	d.end()
	b.end()
	lanes := map[string]int{}
	for _, s := range r.finished() {
		lanes[s.Name] = s.Lane
	}
	if lanes["a"] == lanes["b"] || lanes["c"] != lanes["a"] || lanes["d"] != lanes["a"] {
		t.Errorf("lanes %v: want a and b apart, c and d on a's lane", lanes)
	}
	var none *recorder
	none.begin("x", "y", 0).end() // tracing off: no panic, nothing kept
	if none.finished() != nil {
		t.Error("nil recorder kept spans")
	}
}

func TestLedgerArithmetic(t *testing.T) {
	c := appCosts{
		records:    100,
		btb:        5400 * time.Nanosecond,
		tage:       4000 * time.Nanosecond,
		l1i:        3000 * time.Nanosecond,
		l2:         1200 * time.Nanosecond,
		analytic:   17800 * time.Nanosecond,
		tracedSelf: 8200 * time.Nanosecond, // core own 40 + I-cache 42 per record
	}
	l := ledgerOf(c)
	want := ledger{btb: 54, tage: 40, icache: 42, self: 40, sum: 176, measured: 178, residual: 2}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"btb", l.btb, want.btb}, {"tage", l.tage, want.tage}, {"icache", l.icache, want.icache},
		{"self", l.self, want.self}, {"sum", l.sum, want.sum}, {"measured", l.measured, want.measured},
		{"residual", l.residual, want.residual},
	} {
		if math.Abs(f.got-f.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", f.name, f.got, f.want)
		}
	}
	// Two apps pool their work: totals over total records.
	two := ledgerOf(c, c)
	if math.Abs(two.sum-l.sum) > 1e-9 || math.Abs(two.residual-l.residual) > 1e-9 {
		t.Errorf("pooled ledger %+v differs from one app's %+v", two, l)
	}
}

func TestReportDigestIgnoresTimingLines(t *testing.T) {
	a := "== Fig 10\n   paper: x\n\nrow 1.23\n\n[fig10 finished in 0.4s]\n\n"
	b := "== Fig 10\n   paper: x\n\nrow 1.23\n\n[fig10 finished in 12.9s]\n\n"
	c := "== Fig 10\n   paper: x\n\nrow 1.24\n\n[fig10 finished in 0.4s]\n\n"
	if reportDigest(a) != reportDigest(b) {
		t.Error("timing lines changed the digest")
	}
	if reportDigest(a) == reportDigest(c) {
		t.Error("a changed result kept the digest")
	}
}
