package graph

import "sync"

// parallel calls fn once for each range [cuts[i], cuts[i+1]) and returns
// the calls' results in range order once every call has returned. Each
// range after the first runs on a goroutine of its own and the first on
// the caller's, so one range starts no goroutine. The calls must write
// disjoint memory.
func parallel(cuts []int, fn func(lo, hi int) int64) []int64 {
	res := make([]int64, len(cuts)-1)
	var wg sync.WaitGroup
	wg.Add(len(res) - 1)
	for i := 1; i < len(res); i++ {
		go runRange(&wg, fn, cuts[i], cuts[i+1], &res[i])
	}
	res[0] = fn(cuts[0], cuts[1])
	wg.Wait()
	return res
}

// runRange is one of parallel's goroutines: it stores fn's result for
// its range in *out, then marks itself done.
func runRange(wg *sync.WaitGroup, fn func(lo, hi int) int64, lo, hi int, out *int64) {
	defer wg.Done()
	*out = fn(lo, hi)
}

// split cuts [0, total) into k contiguous ranges whose lengths differ by
// at most one and returns the k+1 cut points.
func split(total, k int) []int {
	cuts := make([]int, k+1)
	for i := range cuts {
		cuts[i] = total * i / k
	}
	return cuts
}

// drawEdges fills edges in one contiguous range per worker, where edge i
// takes draws [i·perEdge, (i+1)·perEdge) of r's sequence. Each range's
// fill draws from a copy of r skipped to its first edge's draws, so it
// sees exactly the draws a sequential loop over edges would; r then
// skips past every edge's draws, as that loop would have left it.
func drawEdges(r *RNG, workers int, edges []Edge, perEdge int, fill func(r *RNG, part []Edge)) {
	parallel(split(len(edges), workers), func(lo, hi int) int64 {
		rr := *r
		rr.skip(uint64(lo) * uint64(perEdge))
		fill(&rr, edges[lo:hi])
		return 0
	})
	r.skip(uint64(len(edges)) * uint64(perEdge))
}
