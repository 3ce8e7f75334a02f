package graph

import (
	"fmt"
	"math"
	"slices"
)

// DegreeStats summarizes a graph's out-degree distribution.
type DegreeStats struct {
	Vertices int
	Edges    int64
	Min      int
	Max      int
	Mean     float64
	Median   int
	// Gini is the Gini coefficient of the degree distribution: ~0 for
	// meshes (road), high (>0.5) for heavy-tailed social graphs. It is the
	// skew signal the dataset registry asserts on.
	Gini float64
	// Isolated is the number of zero-degree vertices.
	Isolated int
}

// ComputeDegreeStats scans g once and returns its degree summary.
func ComputeDegreeStats(g *CSR) DegreeStats {
	n := g.NumVertices()
	s := DegreeStats{Vertices: n, Edges: g.NumEdges(), Min: math.MaxInt}
	if n == 0 {
		s.Min = 0
		return s
	}
	degs := make([]int, n)
	var sum int64
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		degs[v] = d
		sum += int64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.Mean = float64(sum) / float64(n)
	slices.Sort(degs)
	s.Median = degs[n/2]

	// Gini over the sorted degree sequence.
	if sum > 0 {
		var cum, weighted float64
		for i, d := range degs {
			cum += float64(d)
			weighted += float64(i+1) * float64(d)
			_ = cum
		}
		s.Gini = (2*weighted)/(float64(n)*float64(sum)) - float64(n+1)/float64(n)
	}
	return s
}

// String implements fmt.Stringer.
func (s DegreeStats) String() string {
	return fmt.Sprintf("V=%d E=%d deg[min=%d med=%d mean=%.2f max=%d] gini=%.3f isolated=%d",
		s.Vertices, s.Edges, s.Min, s.Median, s.Mean, s.Max, s.Gini, s.Isolated)
}

// ConnectedComponentsCount returns the number of weakly connected
// components, treating edges as undirected. It is a helper for dataset
// sanity checks and test oracles.
func ConnectedComponentsCount(g *CSR) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	// Union-find over both edge directions.
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		ru := find(uint32(u))
		for _, v := range g.Neighbors(uint32(u)) {
			rv := find(v)
			if ru != rv {
				parent[rv] = ru
			}
		}
	}
	count := 0
	for i := range parent {
		if find(uint32(i)) == uint32(i) {
			count++
		}
	}
	return count
}

// LargestComponentSource returns a vertex of maximum degree, a reasonable
// BFS/SSSP/BC source that GAP also favors (high-degree sources reach the
// giant component).
func LargestComponentSource(g *CSR) uint32 {
	var best uint32
	bestDeg := -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > bestDeg {
			bestDeg = d
			best = uint32(v)
		}
	}
	return best
}
