package bench

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean returns the interquartile mean of xs: the mean of what is left
// after dropping its lowest and highest quarter (len(xs)/4 values at each
// end), or NaN for an empty slice. Like the median it ignores outliers,
// but it averages the middle half rather than taking one value of it, so
// it varies less from sample to sample.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 4
	sum := 0.0
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// quartiles returns the three cut points dividing xs into quarters with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread bounds are stated in. A single value is its
// own quartiles; an empty slice gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
