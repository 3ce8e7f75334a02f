package bench

import (
	"time"
)

// timerCost is the calibrated cost of the host clock. floor is what an
// empty interval reads (subtracted from every timed span); pair is the
// full cost of one time.Now/time.Since pair, part of which lands outside
// the interval it measures.
type timerCost struct {
	floor time.Duration
	pair  time.Duration
}

// calibrateTimer measures the clock on n empty intervals: the median
// reading is the floor, and the mean wall time per pair over a second,
// store-free loop is the pair cost.
func calibrateTimer(n int) timerCost {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	var sum time.Duration
	start := time.Now()
	for range n {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	wall := time.Since(start)
	_ = sum // read only so the loop body matches a timed span's
	return timerCost{
		floor: time.Duration(median(d)),
		pair:  wall / time.Duration(n),
	}
}
