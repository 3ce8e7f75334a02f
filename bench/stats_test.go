package bench

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2, 10}, 1.25, 2.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5}, // drops two at each end
		{[]float64{9, 1, 2}, 4},                      // too few to drop any
		{[]float64{7}, 7},
	} {
		if got := midMean(c.xs); got != c.want {
			t.Errorf("midMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(midMean(nil)) {
		t.Error("midMean(nil) is not NaN")
	}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {20, 1}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTimerCalibration(t *testing.T) {
	tc := calibrateTimer(1 << 14)
	if tc.floor < 0 || tc.pair <= 0 {
		t.Fatalf("calibration %+v: want a non-negative floor and a positive pair cost", tc)
	}
	if tc.floor > tc.pair {
		t.Errorf("empty interval %v reads more than a whole pair costs (%v)", tc.floor, tc.pair)
	}
	if tc.pair > 20*time.Microsecond {
		t.Errorf("pair cost %v: clock implausibly slow", tc.pair)
	}
}
