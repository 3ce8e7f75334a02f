package graph

import (
	"fmt"
	"math"
	"runtime"
)

// GenOptions configures the synthetic graph generators.
type GenOptions struct {
	Seed       uint64
	Weighted   bool
	MaxWeight  int32 // weights drawn uniformly from [1, MaxWeight]; default 255
	Symmetrize bool  // build the undirected version (GAP default for kron/urand)
}

func (o GenOptions) maxWeight() int32 {
	if o.MaxWeight <= 0 {
		return 255
	}
	return o.MaxWeight
}

// drawWeights returns m edges' weights, edge i's in [1, MaxWeight] from
// r's i-th draw, drawn in workers ranges; nil, drawing nothing, when the
// graph is unweighted.
func (o GenOptions) drawWeights(m int, r *RNG, workers int) []int32 {
	if !o.Weighted {
		return nil
	}
	mw := int(o.maxWeight())
	w := make([]int32, m)
	drawEdges(r, workers, m, 1, func(r *RNG, lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i] = 1 + int32(r.Intn(mw))
		}
	})
	return w
}

// RMAT generates a 2^scale-vertex RMAT graph with degree*2^scale edges
// using the given partition probabilities. GAP's Kronecker generator uses
// a=0.57, b=c=0.19 (see Kron). Social-network proxies use a skewed but
// less extreme partition. Edge i takes RMAT draws [i·scale, (i+1)·scale),
// so the edges are drawn on all runtime.GOMAXPROCS(0) CPUs, one range of
// edges each, and the graph does not depend on the CPU count.
func RMAT(scale, degree int, a, b, c float64, opt GenOptions) (*CSR, error) {
	return rmat(scale, degree, a, b, c, opt, runtime.GOMAXPROCS(0))
}

// rmat is RMAT drawn and built by workers goroutines.
func rmat(scale, degree int, a, b, c float64, opt GenOptions, workers int) (*CSR, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", scale)
	}
	if degree < 1 {
		return nil, fmt.Errorf("graph: RMAT degree %d < 1", degree)
	}
	if a+b+c >= 1.0 {
		return nil, fmt.Errorf("graph: RMAT partition a+b+c=%.3f must be < 1", a+b+c)
	}
	n := 1 << scale
	m := n * degree
	r := NewRNG(opt.Seed ^ 0x7a3d_91c4_55aa_0f0f)
	q := newRMATQuadrants(a, b, c)
	uv := make([]uint64, m)
	drawEdges(r, workers, m, scale, func(r *RNG, lo, hi int) {
		for i := lo; i < hi; i++ {
			var u, v uint32
			for range scale {
				bu, bv := q.pick(r.Uint64() >> 11)
				u = u<<1 | bu
				v = v<<1 | bv
			}
			uv[i] = pack(u, v)
		}
	})
	return build(uv, opt.drawWeights(m, r, workers), BuildOptions{
		NumVertices:   n,
		Symmetrize:    opt.Symmetrize,
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      opt.Weighted,
	}, workers)
}

// rmatQuadrants picks one RMAT level's quadrant from a 53-bit draw k by
// integer compares. The quadrant is the one whose cumulative interval
// [0,a), [a,a+b), [a+b,a+b+c), [a+b+c,1) holds p = k/2^53 (RNG.Float64),
// and p ≥ t exactly when k ≥ ⌈t·2^53⌉, so the compares pick the quadrant
// the float ones would, draw for draw.
type rmatQuadrants struct{ a, ab, abc uint64 }

// newRMATQuadrants computes the thresholds from the float64 sums a+b and
// a+b+c. Each cut is at least the one before it: a negative b or c then
// empties a quadrant, as a first-match float compare chain would.
func newRMATQuadrants(a, b, c float64) rmatQuadrants {
	q := rmatQuadrants{a: rmatThreshold(a)}
	q.ab = max(rmatThreshold(a+b), q.a)
	q.abc = max(rmatThreshold(a+b+c), q.ab)
	return q
}

// pick returns the quadrant's source and destination bits for draw k. The
// source bit marks the last two quadrants, [a+b,1); the destination bit
// marks the second and fourth, which is the parity of the three compares.
func (q rmatQuadrants) pick(k uint64) (u, v uint32) {
	u = b2u(k >= q.ab)
	return u, b2u(k >= q.a) ^ u ^ b2u(k >= q.abc)
}

// rmatThreshold returns ⌈t·2^53⌉ clamped to [0, 2^53]: the least 53-bit k
// with k/2^53 ≥ t. t·2^53 is exact in float64 (a power-of-two scaling),
// so the threshold is too. A NaN t gives 0, as p < NaN is false.
func rmatThreshold(t float64) uint64 {
	switch {
	case !(t > 0):
		return 0
	case t >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(t * (1 << 53)))
}

// b2u converts a bool to 0 or 1.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Kron generates a GAP-style Kronecker graph (RMAT with a=0.57, b=c=0.19),
// the "kron" dataset of Table III.
func Kron(scale, degree int, opt GenOptions) (*CSR, error) {
	return RMAT(scale, degree, 0.57, 0.19, 0.19, opt)
}

// Uniform generates a 2^scale-vertex uniform-random graph with
// degree*2^scale edges (the "urand" dataset of Table III): both endpoints
// of every edge are drawn uniformly, U then V. As in RMAT, the edges are
// drawn on all runtime.GOMAXPROCS(0) CPUs, and the graph does not depend
// on the CPU count.
func Uniform(scale, degree int, opt GenOptions) (*CSR, error) {
	return uniform(scale, degree, opt, runtime.GOMAXPROCS(0))
}

// uniform is Uniform drawn and built by workers goroutines.
func uniform(scale, degree int, opt GenOptions, workers int) (*CSR, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: Uniform scale %d out of range [1,30]", scale)
	}
	if degree < 1 {
		return nil, fmt.Errorf("graph: Uniform degree %d < 1", degree)
	}
	n := 1 << scale
	m := n * degree
	r := NewRNG(opt.Seed ^ 0x1234_5678_9abc_def0)
	uv := make([]uint64, m)
	drawEdges(r, workers, m, 2, func(r *RNG, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := uint32(r.Intn(n))
			uv[i] = pack(u, uint32(r.Intn(n)))
		}
	})
	return build(uv, opt.drawWeights(m, r, workers), BuildOptions{
		NumVertices:   n,
		Symmetrize:    opt.Symmetrize,
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      opt.Weighted,
	}, workers)
}

// Grid generates a rows×cols 2D mesh: each cell connects to its 4-neighbors.
// A small fraction of extra "diagonal highway" edges is added so the
// diameter is large but not degenerate, approximating a road network (the
// "road" dataset of Table III: low degree, huge diameter, high locality).
func Grid(rows, cols int, opt GenOptions) (*CSR, error) {
	return grid(rows, cols, opt, runtime.GOMAXPROCS(0))
}

// grid is Grid built by workers goroutines.
func grid(rows, cols int, opt GenOptions, workers int) (*CSR, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: Grid %dx%d invalid", rows, cols)
	}
	if rows > MaxVertices/cols {
		return nil, fmt.Errorf("graph: Grid %dx%d has more than MaxVertices (%d) vertices", rows, cols, MaxVertices)
	}
	n := rows * cols
	id := func(rr, cc int) uint32 { return uint32(rr*cols + cc) }
	r := NewRNG(opt.Seed ^ 0xfeed_f00d_dead_beef)
	uv := make([]uint64, 0, 2*n+n/16)
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			if cc+1 < cols {
				uv = append(uv, pack(id(rr, cc), id(rr, cc+1)))
			}
			if rr+1 < rows {
				uv = append(uv, pack(id(rr, cc), id(rr+1, cc)))
			}
		}
	}
	// Sparse shortcut edges (~1/16 of vertices) emulate highway ramps.
	for i := 0; i < n/16; i++ {
		u := uint32(r.Intn(n))
		uv = append(uv, pack(u, uint32(r.Intn(n))))
	}
	return build(uv, opt.drawWeights(len(uv), r, workers), BuildOptions{
		NumVertices:   n,
		Symmetrize:    true, // roads are undirected
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      opt.Weighted,
	}, workers)
}

// SocialNetwork generates an orkut/livejournal-style proxy: an RMAT graph
// with a moderately skewed partition whose vertex IDs are then randomly
// relabeled. Real SNAP social graphs have heavy-tailed degrees but little
// ID locality; the relabeling destroys the RMAT generator's ID locality to
// match. The relabeling permutation is drawn sequentially; the RMAT
// draws, the weights and both builds use all runtime.GOMAXPROCS(0) CPUs.
func SocialNetwork(scale, degree int, opt GenOptions) (*CSR, error) {
	return socialNetwork(scale, degree, opt, runtime.GOMAXPROCS(0))
}

// socialNetwork is SocialNetwork drawn and built by workers goroutines.
func socialNetwork(scale, degree int, opt GenOptions, workers int) (*CSR, error) {
	g, err := rmat(scale, degree, 0.45, 0.22, 0.22, GenOptions{
		Seed:     opt.Seed ^ 0x50c1a1,
		Weighted: false, // relabel first, then weights
	}, workers)
	if err != nil {
		return nil, err
	}
	r := NewRNG(opt.Seed ^ 0x9e11_a5e5)
	perm := r.Perm(g.NumVertices())
	uv := make([]uint64, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			uv = append(uv, pack(perm[u], perm[v]))
		}
	}
	return build(uv, opt.drawWeights(len(uv), r, workers), BuildOptions{
		NumVertices:   g.NumVertices(),
		Symmetrize:    opt.Symmetrize,
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      opt.Weighted,
	}, workers)
}
