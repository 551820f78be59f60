package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, q3, med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 2, 4}, 1.25, 3.75, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5, 3},
		{[]float64{2.5, 7.1}, 1.35, 8.25, 4.8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.xs), c.med) {
			t.Errorf("%v: quartiles %g, %g median %g; want %g, %g median %g", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.99, 39.7}, {1.0 / 3, 20},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := millis([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("millis = %v", got)
	}
}

// The quietest pass takes every segment at its fastest repetition,
// whichever pass that came from; an operation is the sum of its segments.
func TestQuietestTakesEachFastestRepetition(t *testing.T) {
	ms := time.Millisecond
	mid := func(wall time.Duration) segment { return segment{wall: wall} }
	end := func(wall time.Duration) segment { return segment{wall: wall, ends: true} }
	passes := [][]segment{
		{mid(4 * ms), end(6 * ms), end(30 * ms)},
		{mid(5 * ms), end(3 * ms), end(20 * ms)},
		{mid(1 * ms), end(8 * ms), end(25 * ms)},
	}
	wall, ops := quietest(passes)
	if wall != 24*ms {
		t.Errorf("quietest wall = %v, want 24ms", wall)
	}
	if len(ops) != 2 || ops[0] != 4*ms || ops[1] != 20*ms {
		t.Errorf("quietest ops = %v, want [4ms 20ms]", ops)
	}
	if passes[0][0].wall != 4*ms {
		t.Error("quietest must not write into the passes")
	}
	if wall, ops := quietest(nil); wall != 0 || len(ops) != 0 {
		t.Error("no passes must read 0")
	}
}
