package graph

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestParallelPanicReachesCaller checks that a range panicking on one of
// parallel's goroutines does not end the process: once every range has
// returned, the caller recovers the first panicking range's value.
func TestParallelPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		panics []int // ranges that panic
		want   int   // the range whose value the caller sees
	}{
		{[]int{1}, 1},
		{[]int{2, 1}, 1},
		{[]int{0, 2}, 0},
	} {
		var done atomic.Int32
		got := func() (p any) {
			defer func() { p = recover() }()
			parallel([]int{0, 1, 2, 3}, func(lo, _ int) int64 {
				defer done.Add(1)
				for _, r := range tc.panics {
					if lo == r {
						panic(fmt.Sprint("range ", r))
					}
				}
				return 0
			})
			return nil
		}()
		if want := fmt.Sprint("range ", tc.want); got != want {
			t.Errorf("ranges %v panic: caller recovered %v, want %q", tc.panics, got, want)
		}
		if n := done.Load(); n != 3 {
			t.Errorf("ranges %v panic: %d of 3 ranges returned before the caller's panic", tc.panics, n)
		}
	}
}
