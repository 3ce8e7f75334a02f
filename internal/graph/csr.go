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
	"math/bits"
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
// The count, the scatter and the sorts run on all runtime.GOMAXPROCS(0)
// CPUs; the graph does not depend on the CPU count. After Dedupe the
// neighbor and weight arrays may keep their pre-dedupe capacity. A vertex
// count or ID beyond MaxVertices is an error.
func FromEdges(edges []Edge, opt BuildOptions) (*CSR, error) {
	return fromEdges(edges, opt, runtime.GOMAXPROCS(0))
}

// fromEdges is FromEdges on workers CPUs: it packs the edges into the
// build's 8-byte form, with the weights apart and only when weighted.
func fromEdges(edges []Edge, opt BuildOptions, workers int) (*CSR, error) {
	uv := make([]uint64, len(edges))
	var w []int32
	if opt.Weighted {
		w = make([]int32, len(edges))
	}
	for i, e := range edges {
		uv[i] = pack(e.U, e.V)
		if w != nil {
			w[i] = e.W
		}
	}
	return build(uv, w, opt, workers)
}

// pack is the build's 8-byte edge form: the source in the high word, the
// destination in the low one.
func pack(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// build is FromEdges on packed edges: edge i runs from uv[i]>>32 to
// uint32(uv[i]), with weight w[i] when opt.Weighted (w is read only
// then). It counts and scatters on scatterWorkers of the workers CPUs and
// sorts on all of them.
func build(uv []uint64, w []int32, opt BuildOptions, workers int) (*CSR, error) {
	n, err := numVertices(uv, opt.NumVertices, workers)
	if err != nil {
		return nil, err
	}
	g := &CSR{offsets: make([]int64, n+1), symmetric: opt.Symmetrize}
	g.scatter(uv, w, opt, scatterWorkers(len(uv), n, workers))
	g.sortLists(opt.Dedupe, workers)
	return g, nil
}

// scatterWorkers is how many workers count and scatter m edges over n
// vertices: every CPU, but at most one per 4n edges. Each worker's
// cursors take 8 bytes a vertex, so together they never exceed a quarter
// of the 8-byte edge list, and a sparse mesh (about two edges a vertex)
// stays on one worker, which allocates no cursors.
func scatterWorkers(m, n, cpus int) int {
	return max(1, min(cpus, m/(4*max(n, 1))))
}

// numVertices returns the graph's vertex count: nv when positive, after
// checking every endpoint is below it, else one more than the largest
// endpoint, which must be below MaxVertices. It scans the edges in
// workers ranges.
func numVertices(uv []uint64, nv, workers int) (int, error) {
	if nv > MaxVertices {
		return 0, fmt.Errorf("graph: %d vertices exceeds MaxVertices (%d)", nv, MaxVertices)
	}
	var top int64 // one more than the largest endpoint
	for _, t := range parallel(split(len(uv), workers), func(lo, hi int) int64 {
		var t int64
		for _, e := range uv[lo:hi] {
			t = max(t, int64(e>>32)+1, int64(uint32(e))+1)
		}
		return t
	}) {
		top = max(top, t)
	}
	if nv <= 0 {
		if top > MaxVertices {
			return 0, fmt.Errorf("graph: vertex ID %d out of range: MaxVertices is %d", top-1, MaxVertices)
		}
		return int(top), nil
	}
	if top > int64(nv) {
		for _, e := range uv {
			if u, v := uint32(e>>32), uint32(e); int(u) >= nv || int(v) >= nv {
				return 0, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", u, v, nv)
			}
		}
	}
	return nv, nil
}

// scatter counts every vertex's entries (applying Symmetrize and
// DropSelfLoops), prefix-sums them into the offsets, allocates the
// neighbor and weight arrays and writes every kept edge, and its reverse
// when symmetrizing, into its source's list. Worker k of workers takes
// the k-th contiguous range of the edges and counts it into its own
// cursors; the prefix sum runs over (vertex, worker), so worker k's
// entries of a list start right after worker k−1's, and each entry lands
// exactly where a one-worker scatter in edge order puts it. Workers
// 0..workers−2 keep their cursors in one shared array, n apiece; the
// last worker counts into offsets[u+1] and uses offsets[u] as u's cursor,
// which its scatter leaves at the start of u+1's list, so shifting the
// offsets right by one slot restores them.
func (g *CSR) scatter(uv []uint64, w []int32, opt BuildOptions, workers int) {
	n := g.NumVertices()
	off := g.offsets
	cur := make([]int64, (workers-1)*n)
	// arrays returns worker k's counts and cursors, indexed by vertex: its
	// n slots of cur, or for the last worker the offsets, counted one slot up.
	arrays := func(k int) (counts, cursors []int64) {
		if k == workers-1 {
			return off[1:], off[:n]
		}
		c := cur[k*n : (k+1)*n]
		return c, c
	}
	cuts := split(len(uv), workers)
	perWorker := split(workers, workers) // parallel calls fn(k, k+1) for worker k
	parallel(perWorker, func(k, _ int) int64 {
		counts, _ := arrays(k)
		countEdges(counts, uv[cuts[k]:cuts[k+1]], opt.Symmetrize, opt.DropSelfLoops)
		return 0
	})
	var pos int64 // the prefix sum over (vertex, worker)
	for u := 0; u < n; u++ {
		for i := u; i < len(cur); i += n {
			cur[i], pos = pos, pos+cur[i]
		}
		off[u], pos = pos, pos+off[u+1]
	}
	off[n] = pos
	g.neigh = make([]uint32, pos)
	if opt.Weighted {
		g.weights = make([]int32, pos)
	}
	parallel(perWorker, func(k, _ int) int64 {
		_, cursors := arrays(k)
		lo, hi := cuts[k], cuts[k+1]
		var wk []int32
		if opt.Weighted {
			wk = w[lo:hi]
		}
		placeEdges(cursors, g.neigh, g.weights, uv[lo:hi], wk, opt.Symmetrize, opt.DropSelfLoops)
		return 0
	})
	copy(off[1:], off[:n])
	off[0] = 0
}

// countEdges adds to counts[u] the entries each edge of uv gives vertex
// u: one for its source, one for its destination when symmetrizing, none
// for a self loop dropped.
func countEdges(counts []int64, uv []uint64, sym, dropLoops bool) {
	for _, e := range uv {
		u, v := uint32(e>>32), uint32(e)
		if u == v && dropLoops {
			continue
		}
		counts[u]++
		if sym && u != v {
			counts[v]++
		}
	}
}

// placeEdges writes each edge of uv (weight w[i] when weights is not nil)
// at its source's cursor, and its reverse at its destination's when
// symmetrizing, advancing the cursors.
func placeEdges(cursors []int64, neigh []uint32, weights []int32, uv []uint64, w []int32, sym, dropLoops bool) {
	for i, e := range uv {
		u, v := uint32(e>>32), uint32(e)
		if u == v && dropLoops {
			continue
		}
		j := cursors[u]
		cursors[u]++
		neigh[j] = v
		if weights != nil {
			weights[j] = w[i]
		}
		if sym && u != v {
			j = cursors[v]
			cursors[v]++
			neigh[j] = u
			if weights != nil {
				weights[j] = w[i]
			}
		}
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
// entry or offset another run writes. An unweighted list of radixMin
// entries or more is radix-sorted, a shorter one goes to slices.Sort;
// either way a list of IDs has one sorted order.
func (g *CSR) sortRun(lo, hi int, dedupe bool) int64 {
	var keys []uint64 // scratch for weighted lists
	rs := newRadixSorter(g.NumVertices())
	off, neigh, weights := g.offsets, g.neigh, g.weights
	first := off[lo]
	a, w := first, first
	for u := lo; u < hi; u++ {
		b := off[u+1]
		switch {
		case weights != nil:
			keys = sortWeighted(neigh[a:b], weights[a:b], keys)
		case b-a >= radixMin:
			rs.sort(neigh[a:b])
		default:
			slices.Sort(neigh[a:b])
		}
		if !dedupe {
			a, w = b, b
			continue
		}
		start := w
		for i := a; i < b; i++ {
			if w > start && neigh[i] == neigh[w-1] {
				continue
			}
			neigh[w] = neigh[i]
			if weights != nil {
				weights[w] = weights[i]
			}
			w++
		}
		if u > lo {
			off[u] = start
		}
		a = b
	}
	return w - first
}

// radixMin is the shortest unweighted neighbor list sortRun radix-sorts.
// Building Kron(17,16) from its drawn edges on 2 vCPUs took 65–76 ms
// (medians of 6) at cutoffs from 24 to 256 entries, 104 ms at 1024 and
// 160 ms with no radix sort. The road meshes' lists (about four
// neighbors) stay far below it, on slices.Sort.
const radixMin = 64

// radixBits is the widest digit one radix pass sorts on: 2^11 counters.
const radixBits = 11

// radixSorter sorts the neighbor lists of one graph by LSD radix on their
// IDs, below n. Every pass sorts on one digit of width bits, from the
// lowest digit up; passes·width covers bits.Len32(n−1), with at most
// radixBits a pass: one pass up to 2^11 vertices, two up to 2^22 (every
// registry graph), three up to MaxVertices. A sorter is one worker's: its
// scratch grows to the longest list it sorts.
type radixSorter struct {
	width  uint     // digit bits per pass
	passes int      // digits
	count  []int    // one counter per digit value
	buf    []uint32 // scratch the passes alternate with
}

// newRadixSorter returns the sorter for IDs below n. It allocates
// nothing until it sorts.
func newRadixSorter(n int) radixSorter {
	b := bits.Len32(uint32(max(n, 1) - 1))
	passes := max(1, (b+radixBits-1)/radixBits)
	return radixSorter{width: uint((b + passes - 1) / passes), passes: passes}
}

// sort sorts a ascending. Each pass is a stable counting sort on one
// digit from one buffer into the other; after an odd number of passes the
// result sits in the scratch buffer and is copied back.
func (s *radixSorter) sort(a []uint32) {
	if s.count == nil {
		s.count = make([]int, 1<<s.width)
	}
	if cap(s.buf) < len(a) {
		s.buf = make([]uint32, len(a))
	}
	mask := uint32(len(s.count) - 1)
	src, dst := a, s.buf[:len(a)]
	for p := range s.passes {
		shift := uint(p) * s.width
		c := s.count
		clear(c)
		for _, x := range src {
			c[x>>shift&mask]++
		}
		sum := 0
		for d, k := range c {
			c[d] = sum
			sum += k
		}
		for _, x := range src {
			d := x >> shift & mask
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if s.passes%2 == 1 {
		copy(a, src)
	}
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
