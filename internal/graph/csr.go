// Package graph provides the Compressed Sparse Row (CSR) graph layout and
// synthetic graph generators used throughout the simulator.
//
// The CSR format mirrors Section II-A of the paper: an offset-pointer array
// (one entry per vertex pointing into the neighbor list), a neighbor-ID
// array (the "structure data"), and a per-vertex property array owned by
// each algorithm (the "property data"). Neighbor IDs are 32-bit, matching
// the paper's 4-byte scan granularity for unweighted graphs; weighted
// graphs pair each neighbor with a 32-bit weight for an 8-byte granularity.
package graph

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
)

// MaxVertices is the most vertices a graph may have, and the most the
// generators build: RMAT and Uniform at scale 30, Grid at rows·cols =
// 1<<30. FromEdges rejects a larger vertex count, or a vertex ID it would
// size the graph by, before it allocates anything.
const MaxVertices = 1 << 30

// Edge is a directed edge from U to V with an optional weight.
// For unweighted graphs W is ignored.
type Edge struct {
	U, V uint32
	W    int32
}

// CSR is an immutable compressed-sparse-row graph.
//
// The zero value is an empty graph with no vertices. Build one with
// FromEdges or a generator.
type CSR struct {
	offsets []int64  // len NumVertices()+1; offsets[v]..offsets[v+1] index neigh
	neigh   []uint32 // neighbor IDs, len NumEdges()
	weights []int32  // nil for unweighted graphs, else len NumEdges()
	// symmetric records that FromEdges symmetrized the graph: every u→v
	// edge has a v→u twin of equal weight, so the graph is its own
	// transpose.
	symmetric bool
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges (stored neighbor entries).
func (g *CSR) NumEdges() int64 { return int64(len(g.neigh)) }

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor-ID slice of vertex v. The slice aliases
// internal storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
// It panics if the graph is unweighted.
func (g *CSR) NeighborWeights(v uint32) []int32 {
	if g.weights == nil {
		panic("graph: NeighborWeights on unweighted graph")
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// EdgeRange returns the half-open index range [lo, hi) of vertex v's
// neighbors within the neighbor-ID array. The indices are what the memory
// tracer uses to compute structure-data addresses.
func (g *CSR) EdgeRange(v uint32) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// NeighborAt returns the i-th stored neighbor ID (global edge index).
func (g *CSR) NeighborAt(i int64) uint32 { return g.neigh[i] }

// WeightAt returns the weight of the i-th stored edge (global edge index).
// It panics if the graph is unweighted.
func (g *CSR) WeightAt(i int64) int32 {
	if g.weights == nil {
		panic("graph: WeightAt on unweighted graph")
	}
	return g.weights[i]
}

// Offsets returns the offset-pointer array (len NumVertices()+1). The slice
// aliases internal storage and must not be modified.
func (g *CSR) Offsets() []int64 { return g.offsets }

// NeighborIDs returns the full neighbor-ID array. The slice aliases
// internal storage and must not be modified.
func (g *CSR) NeighborIDs() []uint32 { return g.neigh }

// String implements fmt.Stringer with a short summary.
func (g *CSR) String() string {
	kind := "unweighted"
	if g.Weighted() {
		kind = "weighted"
	}
	return fmt.Sprintf("CSR{%d vertices, %d edges, %s}", g.NumVertices(), g.NumEdges(), kind)
}

// BuildOptions controls FromEdges.
type BuildOptions struct {
	// NumVertices fixes the vertex count, at most MaxVertices; 0 means
	// 1+max ID seen, so every ID must then be below MaxVertices.
	NumVertices int
	// Symmetrize adds the reverse of every edge (undirected graphs).
	Symmetrize bool
	// Dedupe removes duplicate (u,v) pairs. A weighted pair keeps its
	// smallest weight, whatever the input order, so both directions of a
	// symmetrized edge keep the same one.
	Dedupe bool
	// DropSelfLoops removes u==v edges.
	DropSelfLoops bool
	// Weighted keeps per-edge weights.
	Weighted bool
}

// FromEdges builds a CSR from an edge list. It counts out-degrees,
// prefix-sums them into the offsets, scatters every edge (and its reverse
// when symmetrizing) straight into the neighbor array, then sorts each
// neighbor list in place: by destination ID, matching the layout GAP
// produces, and for weighted graphs by (destination, weight), so parallel
// edges come out lightest first and Dedupe keeps the smallest weight.
// The sorts run on all runtime.GOMAXPROCS(0) CPUs, each on one run of
// consecutive lists; the graph does not depend on the CPU count. After
// Dedupe the neighbor and weight arrays may keep their pre-dedupe
// capacity. A vertex count or ID beyond MaxVertices is an error.
func FromEdges(edges []Edge, opt BuildOptions) (*CSR, error) {
	return fromEdges(edges, opt, runtime.GOMAXPROCS(0))
}

// fromEdges is FromEdges with the lists sorted in workers runs.
func fromEdges(edges []Edge, opt BuildOptions, workers int) (*CSR, error) {
	n := max(opt.NumVertices, 0)
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds MaxVertices (%d)", n, MaxVertices)
	}
	if n > 0 {
		for _, e := range edges {
			if int(e.U) >= n || int(e.V) >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
			}
		}
	} else {
		for _, e := range edges {
			n = max(n, int(e.U)+1, int(e.V)+1)
		}
		if n > MaxVertices {
			return nil, fmt.Errorf("graph: vertex ID %d out of range: MaxVertices is %d", n-1, MaxVertices)
		}
	}

	g := &CSR{offsets: make([]int64, n+1), symmetric: opt.Symmetrize}
	off := g.offsets
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		off[e.U+1]++
		if opt.Symmetrize && e.U != e.V {
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	g.neigh = make([]uint32, off[n])
	if opt.Weighted {
		g.weights = make([]int32, off[n])
	}
	// off[u] is u's write cursor; the scatter leaves it at the start of
	// u+1's list, so shifting the array right by one restores the offsets.
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		g.place(e.U, e.V, e.W)
		if opt.Symmetrize && e.U != e.V {
			g.place(e.V, e.U, e.W)
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.sortLists(opt.Dedupe, workers)
	return g, nil
}

// place writes edge u→v (weight w) at u's cursor and advances it.
func (g *CSR) place(u, v uint32, w int32) {
	i := g.offsets[u]
	g.offsets[u]++
	g.neigh[i] = v
	if g.weights != nil {
		g.weights[i] = w
	}
}

// sortLists sorts every neighbor list (by neighbor, then weight) and, with
// dedupe, keeps the first entry of each run of equal neighbors, compacting
// the lists towards the front of the arrays. The vertices are cut into
// workers runs holding about equal numbers of entries, sorted in
// parallel; one pass then slides each run's kept entries down to the
// running total and rebases its offsets. Each list is sorted and deduped
// on its own, so the result does not depend on the cuts.
func (g *CSR) sortLists(dedupe bool, workers int) {
	n := g.NumVertices()
	// Run i starts at the first vertex whose list starts at or after
	// i/workers of the entries.
	cuts := split(int(g.offsets[n]), workers)
	for i := 1; i < workers; i++ {
		cuts[i], _ = slices.BinarySearch(g.offsets, int64(cuts[i]))
	}
	cuts[workers] = n
	kept := parallel(cuts, func(lo, hi int) int64 { return g.sortRun(lo, hi, dedupe) })
	if !dedupe {
		return
	}
	w := kept[0] // the first run starts at entry 0 and never moves
	for r := 1; r < workers; r++ {
		lo, hi := cuts[r], cuts[r+1]
		if from := g.offsets[lo]; from > w {
			copy(g.neigh[w:], g.neigh[from:from+kept[r]])
			if g.weights != nil {
				copy(g.weights[w:], g.weights[from:from+kept[r]])
			}
			for u := lo; u < hi; u++ {
				g.offsets[u] -= from - w
			}
		}
		w += kept[r]
	}
	g.offsets[n] = w
	g.neigh = g.neigh[:w]
	if g.weights != nil {
		g.weights = g.weights[:w]
	}
}

// sortRun sorts the lists of vertices [lo, hi) and, with dedupe, compacts
// them towards offsets[lo]. It returns how many entries the run keeps. It
// reads offsets[lo..hi] but writes only offsets lo+1..hi-1 (offsets[lo]
// stays where it is), so runs over disjoint vertex ranges never touch an
// entry or offset another run writes.
func (g *CSR) sortRun(lo, hi int, dedupe bool) int64 {
	var keys []uint64 // scratch for weighted lists
	first := g.offsets[lo]
	a, w := first, first
	for u := lo; u < hi; u++ {
		b := g.offsets[u+1]
		if g.weights == nil {
			slices.Sort(g.neigh[a:b])
		} else {
			keys = sortWeighted(g.neigh[a:b], g.weights[a:b], keys)
		}
		if !dedupe {
			a, w = b, b
			continue
		}
		start := w
		for i := a; i < b; i++ {
			if w > start && g.neigh[i] == g.neigh[w-1] {
				continue
			}
			g.neigh[w] = g.neigh[i]
			if g.weights != nil {
				g.weights[w] = g.weights[i]
			}
			w++
		}
		if u > lo {
			g.offsets[u] = start
		}
		a = b
	}
	return w - first
}

// sortWeighted sorts one neighbor list and its parallel weights by
// (neighbor, weight), packing each pair into a uint64 key whose order is
// that of the pair; flipping the sign bit orders the signed weights. keys
// is scratch space, returned for reuse.
func sortWeighted(neigh []uint32, weights []int32, keys []uint64) []uint64 {
	if len(neigh) < 2 {
		return keys
	}
	keys = keys[:0]
	for i, v := range neigh {
		keys = append(keys, uint64(v)<<32|uint64(uint32(weights[i])^1<<31))
	}
	slices.Sort(keys)
	for i, k := range keys {
		neigh[i] = uint32(k >> 32)
		weights[i] = int32(uint32(k) ^ 1<<31)
	}
	return keys
}

// Transpose returns the reverse graph (every edge u→v becomes v→u), with
// weights following their edges. A graph FromEdges symmetrized is its own
// transpose, so Transpose returns the receiver for it; any other graph is
// counting-sorted by destination into a new CSR.
func (g *CSR) Transpose() *CSR {
	if g.symmetric {
		return g
	}
	return g.transpose()
}

// transpose is the general transpose: a counting sort of the edges by
// destination, which leaves each reversed list sorted by source.
func (g *CSR) transpose() *CSR {
	n := g.NumVertices()
	t := &CSR{
		offsets: make([]int64, n+1),
		neigh:   make([]uint32, len(g.neigh)),
	}
	if g.weights != nil {
		t.weights = make([]int32, len(g.weights))
	}
	for _, v := range g.neigh {
		t.offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		t.offsets[v+1] += t.offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, t.offsets[:n])
	for u := 0; u < n; u++ {
		lo, hi := g.EdgeRange(uint32(u))
		for i := lo; i < hi; i++ {
			v := g.neigh[i]
			t.neigh[cursor[v]] = uint32(u)
			if g.weights != nil {
				t.weights[cursor[v]] = g.weights[i]
			}
			cursor[v]++
		}
	}
	return t
}

// Validate checks structural invariants: monotone offsets, in-range
// neighbor IDs, and weight-array consistency. It returns the first
// violation found.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 {
		if len(g.neigh) != 0 {
			return errors.New("graph: neighbors without offsets")
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return errors.New("graph: offsets[0] != 0")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if g.offsets[n] != int64(len(g.neigh)) {
		return fmt.Errorf("graph: offsets[n]=%d != len(neigh)=%d", g.offsets[n], len(g.neigh))
	}
	for i, v := range g.neigh {
		if int(v) >= n {
			return fmt.Errorf("graph: neighbor %d at index %d out of range (%d vertices)", v, i, n)
		}
	}
	if g.weights != nil && len(g.weights) != len(g.neigh) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.weights), len(g.neigh))
	}
	return nil
}
