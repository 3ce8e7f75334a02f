package trace

import (
	"droplet/internal/graph"
	"droplet/internal/mem"
)

// Options configures trace generation.
type Options struct {
	// Cores is the number of simulated cores sharing the work (default 4,
	// matching Table I).
	Cores int
	// MaxEvents caps the stored events across all cores — the simulated
	// region of interest. 0 means unlimited. The kernel always runs to
	// completion so results stay exact; only emission stops.
	MaxEvents int64
	// PRIters / PREpsilon configure PageRank (defaults 10 / 1e-4).
	PRIters   int
	PREpsilon float64
}

func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.PRIters == 0 {
		o.PRIters = 10
	}
	if o.PREpsilon == 0 {
		o.PREpsilon = 1e-4
	}
	return o
}

// shard returns core c's contiguous block of [0, n).
func shard(n, cores, c int) (lo, hi int) {
	return n * c / cores, n * (c + 1) / cores
}

// chunk returns core c's contiguous block of a slice.
func chunk[T any](s []T, cores, c int) []T {
	lo, hi := shard(len(s), cores, c)
	return s[lo:hi]
}

// Per-operation compute-instruction costs. These approximate the
// arithmetic a compiled GAP kernel dispatches around each memory access
// and set the trace's compute-to-memory ratio (the "base" slice of the
// cycle stack in Fig. 1).
const (
	costVertex = 3 // loop control + branch per vertex
	costEdge   = 2 // per-edge address math + compare
	costUpdate = 4 // score/distance update arithmetic
)

// Each kernel is split into a layout constructor (run once, shared
// read-only by the streaming producers) and an emit body that writes
// through the Sink interface. The public wrappers pass an emit body to
// materialize, which runs it once to count and once to fill; the Stream
// constructors pair the same body with the bounded-window generator, so
// both modes execute literally the same instrumented code.

// ---- PageRank ----

type prLayout struct {
	l       *Layout
	scores  mem.Region
	contrib mem.Region
}

func newPRLayout(tr *graph.CSR, n int) prLayout {
	l := NewLayout(tr) // the pull kernel streams the transpose's structure
	return prLayout{
		l:       l,
		scores:  l.AddVertexData("pr.scores", n),
		contrib: l.AddProperty("pr.contrib", n),
	}
}

// PageRank generates the trace of pull-based PageRank and returns it with
// the exact scores (bit-identical to algo.PageRank with the same
// parameters). tr must be g's transpose.
func PageRank(g, tr *graph.CSR, opt Options) (*Trace, []float64) {
	opt = opt.withDefaults()
	lay := newPRLayout(tr, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []float64 {
		return emitPageRank(b, g, tr, lay, opt)
	})
}

// StreamPageRank returns a pull-based generator for the PageRank trace.
func StreamPageRank(g, tr *graph.CSR, opt Options, cfg StreamConfig) *Stream {
	opt = opt.withDefaults()
	lay := newPRLayout(tr, g.NumVertices())
	// The longest link is one event: offset→first structure entry and
	// structure→contrib.
	return newStream(lay.l, opt.Cores, opt.MaxEvents, 1, cfg, func(b Sink) {
		emitPageRank(b, g, tr, lay, opt)
	})
}

func emitPageRank(b Sink, g, tr *graph.CSR, lay prLayout, opt Options) []float64 {
	n := g.NumVertices()
	l := lay.l
	sc := make([]float64, n)
	if n == 0 {
		return sc
	}
	co := make([]float64, n)
	init := 1.0 / float64(n)
	for i := range sc {
		sc[i] = init
	}
	damping := 0.85 // variable, not const: keeps float ops bit-identical to algo.PageRank
	base := (1.0 - damping) / float64(n)

	for iter := 0; iter < opt.PRIters; iter++ {
		// Contribution phase: sequential own-index property traffic.
		for c := 0; c < opt.Cores; c++ {
			lo, hi := shard(n, opt.Cores, c)
			for v := lo; v < hi; v++ {
				b.Compute(c, costVertex)
				b.Load(c, l.PropAddr(lay.scores, uint32(v)), mem.Property, NoDep)
				if d := g.Degree(uint32(v)); d > 0 {
					co[v] = sc[v] / float64(d)
				} else {
					co[v] = 0
				}
				b.Compute(c, costUpdate)
				b.Store(c, l.PropAddr(lay.contrib, uint32(v)), mem.Property, NoDep)
			}
		}
		b.Barrier()

		// Gather phase: stream structure, indirectly consume contrib.
		var delta float64
		for c := 0; c < opt.Cores; c++ {
			lo, hi := shard(n, opt.Cores, c)
			for v := lo; v < hi; v++ {
				b.Compute(c, costVertex)
				offDep := b.Load(c, l.OffsetAddr(uint32(v)), mem.Intermediate, NoDep)
				elo, ehi := tr.EdgeRange(uint32(v))
				var sum float64
				for i := elo; i < ehi; i++ {
					dep := NoDep
					if i == elo {
						dep = offDep // first neighbor address uses the loaded offset
					}
					sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
					u := tr.NeighborAt(i)
					b.Load(c, l.PropAddr(lay.contrib, u), mem.Property, sDep)
					sum += co[u]
					b.Compute(c, costEdge)
				}
				next := base + damping*sum
				if d := next - sc[v]; d < 0 {
					delta -= d
				} else {
					delta += d
				}
				sc[v] = next
				b.Compute(c, costUpdate)
				b.Store(c, l.PropAddr(lay.scores, uint32(v)), mem.Property, NoDep)
			}
		}
		b.Barrier()
		if delta < opt.PREpsilon {
			break
		}
	}
	return sc
}

// ---- BFS ----

type bfsLayout struct {
	l      *Layout
	depthR mem.Region
	frontR mem.Region
	nextR  mem.Region
}

func newBFSLayout(g *graph.CSR, n int) bfsLayout {
	l := NewLayout(g)
	return bfsLayout{
		l:      l,
		depthR: l.AddProperty("bfs.depth", n),
		frontR: l.AddScratch("bfs.frontier", uint64(n+1)*4),
		nextR:  l.AddScratch("bfs.next", uint64(n+1)*4),
	}
}

// BFS generates the trace of a level-synchronous top-down BFS and returns
// it with the depth array (identical to algo.BFS).
func BFS(g *graph.CSR, source uint32, opt Options) (*Trace, []int64) {
	opt = opt.withDefaults()
	lay := newBFSLayout(g, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []int64 {
		return emitBFS(b, g, source, lay, opt)
	})
}

// StreamBFS returns a pull-based generator for the BFS trace.
func StreamBFS(g *graph.CSR, source uint32, opt Options, cfg StreamConfig) *Stream {
	opt = opt.withDefaults()
	lay := newBFSLayout(g, g.NumVertices())
	// The depth store follows its structure load by two events.
	return newStream(lay.l, opt.Cores, opt.MaxEvents, 2, cfg, func(b Sink) {
		emitBFS(b, g, source, lay, opt)
	})
}

func emitBFS(b Sink, g *graph.CSR, source uint32, lay bfsLayout, opt Options) []int64 {
	n := g.NumVertices()
	l := lay.l
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = infDist
	}
	if n == 0 {
		return depth
	}
	depth[source] = 0
	frontier := []uint32{source}
	for level := int64(1); len(frontier) > 0; level++ {
		perCoreNext := make([][]uint32, opt.Cores)
		for c := 0; c < opt.Cores; c++ {
			flo, _ := shard(len(frontier), opt.Cores, c)
			for fi, u := range chunk(frontier, opt.Cores, c) {
				b.Compute(c, costVertex)
				fDep := b.Load(c, lay.frontR.Base+uint64(flo+fi)*4, mem.Intermediate, NoDep)
				offDep := b.Load(c, l.OffsetAddr(u), mem.Intermediate, fDep)
				elo, ehi := g.EdgeRange(u)
				for i := elo; i < ehi; i++ {
					dep := NoDep
					if i == elo {
						dep = offDep
					}
					sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
					v := g.NeighborAt(i)
					b.Load(c, l.PropAddr(lay.depthR, v), mem.Property, sDep)
					b.Compute(c, costEdge)
					if depth[v] == infDist {
						depth[v] = level
						b.Store(c, l.PropAddr(lay.depthR, v), mem.Property, sDep)
						b.Store(c, lay.nextR.Base+uint64(len(perCoreNext[c]))*4, mem.Intermediate, NoDep)
						perCoreNext[c] = append(perCoreNext[c], v)
					}
				}
			}
		}
		frontier = frontier[:0]
		for _, pc := range perCoreNext {
			frontier = append(frontier, pc...)
		}
		b.Barrier()
	}
	return depth
}

const infDist = int64(1) << 62

// ---- SSSP ----

type ssspLayout struct {
	l     *Layout
	distR mem.Region
	binR  mem.Region
}

func newSSSPLayout(g *graph.CSR, n int) ssspLayout {
	l := NewLayout(g)
	return ssspLayout{
		l:     l,
		distR: l.AddProperty("sssp.dist", n),
		binR:  l.AddScratch("sssp.bins", uint64(n+1)*8),
	}
}

// SSSP generates the trace of delta-stepping SSSP over a weighted graph
// and returns it with the distance array (identical to algo.SSSP with the
// same delta). delta <= 0 picks max(1, mean weight).
func SSSP(g *graph.CSR, source uint32, delta int64, opt Options) (*Trace, []int64) {
	opt = opt.withDefaults()
	if !g.Weighted() {
		panic("trace: SSSP requires a weighted graph")
	}
	lay := newSSSPLayout(g, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []int64 {
		return emitSSSP(b, g, source, delta, lay, opt)
	})
}

// StreamSSSP returns a pull-based generator for the SSSP trace.
func StreamSSSP(g *graph.CSR, source uint32, delta int64, opt Options, cfg StreamConfig) *Stream {
	opt = opt.withDefaults()
	if !g.Weighted() {
		panic("trace: SSSP requires a weighted graph")
	}
	lay := newSSSPLayout(g, g.NumVertices())
	// The offset load and the dist store each follow their producer by
	// two events.
	return newStream(lay.l, opt.Cores, opt.MaxEvents, 2, cfg, func(b Sink) {
		emitSSSP(b, g, source, delta, lay, opt)
	})
}

func emitSSSP(b Sink, g *graph.CSR, source uint32, delta int64, lay ssspLayout, opt Options) []int64 {
	n := g.NumVertices()
	l := lay.l
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = infDist
	}
	if n == 0 {
		return dist
	}
	if delta <= 0 {
		var sum int64
		for i := int64(0); i < g.NumEdges(); i++ {
			sum += int64(g.WeightAt(i))
		}
		delta = 1
		if g.NumEdges() > 0 {
			if avg := sum / g.NumEdges(); avg > 1 {
				delta = avg
			}
		}
	}

	dist[source] = 0
	bins := map[int64][]uint32{0: {source}}
	for bin := int64(0); len(bins) > 0; bin++ {
		frontier, ok := bins[bin]
		if !ok {
			continue
		}
		delete(bins, bin)
		for len(frontier) > 0 {
			perCoreRetained := make([][]uint32, opt.Cores)
			for c := 0; c < opt.Cores; c++ {
				for fi, u := range chunk(frontier, opt.Cores, c) {
					b.Compute(c, costVertex)
					fDep := b.Load(c, lay.binR.Base+uint64(fi%n)*8, mem.Intermediate, NoDep)
					dDep := b.Load(c, l.PropAddr(lay.distR, u), mem.Property, fDep)
					du := dist[u]
					if du/delta != bin {
						continue
					}
					offDep := b.Load(c, l.OffsetAddr(u), mem.Intermediate, fDep)
					_ = dDep
					elo, ehi := g.EdgeRange(u)
					ws := g.NeighborWeights(u)
					nbs := g.Neighbors(u)
					for i := elo; i < ehi; i++ {
						dep := NoDep
						if i == elo {
							dep = offDep
						}
						// One 8-byte entry holds neighbor ID + weight.
						sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
						j := i - elo
						v := nbs[j]
						b.Load(c, l.PropAddr(lay.distR, v), mem.Property, sDep)
						b.Compute(c, costEdge)
						nd := du + int64(ws[j])
						if nd < dist[v] {
							dist[v] = nd
							b.Compute(c, costUpdate)
							b.Store(c, l.PropAddr(lay.distR, v), mem.Property, sDep)
							b.Store(c, lay.binR.Base+uint64(v%uint32(n))*8, mem.Intermediate, NoDep)
							target := nd / delta
							if target == bin {
								perCoreRetained[c] = append(perCoreRetained[c], v)
							} else {
								bins[target] = append(bins[target], v)
							}
						}
					}
				}
			}
			frontier = frontier[:0]
			for _, pc := range perCoreRetained {
				frontier = append(frontier, pc...)
			}
			b.Barrier()
		}
	}
	return dist
}

// ---- CC ----

type ccLayout struct {
	l     *Layout
	compR mem.Region
}

func newCCLayout(g *graph.CSR, n int) ccLayout {
	l := NewLayout(g)
	return ccLayout{l: l, compR: l.AddProperty("cc.comp", n)}
}

// CC generates the trace of Shiloach–Vishkin connected components and
// returns it with the component labels (identical to algo.CC).
func CC(g *graph.CSR, opt Options) (*Trace, []uint32) {
	opt = opt.withDefaults()
	lay := newCCLayout(g, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []uint32 {
		return emitCC(b, g, lay, opt)
	})
}

// StreamCC returns a pull-based generator for the CC trace.
func StreamCC(g *graph.CSR, opt Options, cfg StreamConfig) *Stream {
	opt = opt.withDefaults()
	lay := newCCLayout(g, g.NumVertices())
	return newStream(lay.l, opt.Cores, opt.MaxEvents, ccDepSpan(g), cfg, func(b Sink) {
		emitCC(b, g, lay, opt)
	})
}

// ccDepSpan bounds CC's producer-to-consumer distance. The hooking store
// reuses u's own label load across u's whole edge loop: after that load
// come the offset load and at most three events per edge (structure
// load, label load, store), so the store on u's last edge lies at most
// 3·deg(u)+1 events after it. Pointer jumping links events at most two
// apart.
func ccDepSpan(g *graph.CSR) int {
	maxDeg := 0
	for v := range g.NumVertices() {
		maxDeg = max(maxDeg, g.Degree(uint32(v)))
	}
	return 3*maxDeg + 2
}

func emitCC(b Sink, g *graph.CSR, lay ccLayout, opt Options) []uint32 {
	n := g.NumVertices()
	l := lay.l
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		// Hooking phase.
		for c := 0; c < opt.Cores; c++ {
			lo, hi := shard(n, opt.Cores, c)
			for u := lo; u < hi; u++ {
				b.Compute(c, costVertex)
				uDep := b.Load(c, l.PropAddr(lay.compR, uint32(u)), mem.Property, NoDep)
				offDep := b.Load(c, l.OffsetAddr(uint32(u)), mem.Intermediate, NoDep)
				cu := comp[u]
				elo, ehi := g.EdgeRange(uint32(u))
				for i := elo; i < ehi; i++ {
					dep := NoDep
					if i == elo {
						dep = offDep
					}
					sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
					v := g.NeighborAt(i)
					vDep := b.Load(c, l.PropAddr(lay.compR, v), mem.Property, sDep)
					b.Compute(c, costEdge)
					cv := comp[v]
					if cv < cu {
						// Hook the representative: a property load feeds
						// the store address (property as producer).
						b.Store(c, l.PropAddr(lay.compR, cu), mem.Property, uDep)
						comp[cu] = cv
						cu = cv
						changed = true
					} else if cu < cv {
						b.Store(c, l.PropAddr(lay.compR, cv), mem.Property, vDep)
						comp[cv] = cu
						changed = true
					}
				}
			}
		}
		b.Barrier()
		// Pointer-jumping phase: property loads feeding property loads.
		for c := 0; c < opt.Cores; c++ {
			lo, hi := shard(n, opt.Cores, c)
			for v := lo; v < hi; v++ {
				b.Compute(c, costVertex)
				dep := b.Load(c, l.PropAddr(lay.compR, uint32(v)), mem.Property, NoDep)
				for comp[v] != comp[comp[v]] {
					dep = b.Load(c, l.PropAddr(lay.compR, comp[v]), mem.Property, dep)
					comp[v] = comp[comp[v]]
					b.Store(c, l.PropAddr(lay.compR, uint32(v)), mem.Property, NoDep)
				}
				// The convergence check reads one level deeper.
				b.Load(c, l.PropAddr(lay.compR, comp[v]), mem.Property, dep)
			}
		}
		b.Barrier()
	}
	return comp
}

// ---- BC ----

type bcLayout struct {
	l      *Layout
	depthR mem.Region
	sigmaR mem.Region
	deltaR mem.Region
	bcR    mem.Region
	orderR mem.Region
}

func newBCLayout(g *graph.CSR, n int) bcLayout {
	l := NewLayout(g)
	return bcLayout{
		l:      l,
		depthR: l.AddProperty("bc.depth", n),
		sigmaR: l.AddProperty("bc.sigma", n),
		deltaR: l.AddProperty("bc.delta", n),
		bcR:    l.AddVertexData("bc.scores", n),
		orderR: l.AddScratch("bc.order", uint64(n+1)*4),
	}
}

// BC generates the trace of Brandes betweenness centrality from the given
// sources and returns it with the centrality array (identical to algo.BC).
func BC(g *graph.CSR, sources []uint32, opt Options) (*Trace, []float64) {
	opt = opt.withDefaults()
	lay := newBCLayout(g, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []float64 {
		return emitBC(b, g, sources, lay, opt)
	})
}

// StreamBC returns a pull-based generator for the BC trace.
func StreamBC(g *graph.CSR, sources []uint32, opt Options, cfg StreamConfig) *Stream {
	opt = opt.withDefaults()
	lay := newBCLayout(g, g.NumVertices())
	// The sigma store follows its structure load by four events.
	return newStream(lay.l, opt.Cores, opt.MaxEvents, 4, cfg, func(b Sink) {
		emitBC(b, g, sources, lay, opt)
	})
}

func emitBC(b Sink, g *graph.CSR, sources []uint32, lay bcLayout, opt Options) []float64 {
	n := g.NumVertices()
	l := lay.l
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	depth := make([]int64, n)
	sigma := make([]float64, n)
	deltaAcc := make([]float64, n)
	order := make([]uint32, 0, n)

	for _, s := range sources {
		for i := 0; i < n; i++ {
			depth[i] = -1
			sigma[i] = 0
			deltaAcc[i] = 0
		}
		order = order[:0]
		depth[s] = 0
		sigma[s] = 1
		frontier := []uint32{s}
		// Forward phase: BFS + path counting.
		for len(frontier) > 0 {
			var next []uint32
			for c := 0; c < opt.Cores; c++ {
				for _, u := range chunk(frontier, opt.Cores, c) {
					order = append(order, u)
					b.Compute(c, costVertex)
					b.Store(c, lay.orderR.Base+uint64(len(order)-1)*4, mem.Intermediate, NoDep)
					offDep := b.Load(c, l.OffsetAddr(u), mem.Intermediate, NoDep)
					sigDep := b.Load(c, l.PropAddr(lay.sigmaR, u), mem.Property, NoDep)
					_ = sigDep
					elo, ehi := g.EdgeRange(u)
					for i := elo; i < ehi; i++ {
						dep := NoDep
						if i == elo {
							dep = offDep
						}
						sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
						v := g.NeighborAt(i)
						b.Load(c, l.PropAddr(lay.depthR, v), mem.Property, sDep)
						b.Compute(c, costEdge)
						if depth[v] < 0 {
							depth[v] = depth[u] + 1
							b.Store(c, l.PropAddr(lay.depthR, v), mem.Property, sDep)
							next = append(next, v)
						}
						if depth[v] == depth[u]+1 {
							b.Load(c, l.PropAddr(lay.sigmaR, v), mem.Property, sDep)
							sigma[v] += sigma[u]
							b.Store(c, l.PropAddr(lay.sigmaR, v), mem.Property, sDep)
						}
					}
				}
			}
			frontier = next
			b.Barrier()
		}
		// Backward phase: dependency accumulation in reverse BFS order.
		for i := len(order) - 1; i >= 0; i-- {
			c := (len(order) - 1 - i) % opt.Cores // round-robin the reverse walk
			u := order[i]
			b.Compute(c, costVertex)
			oDep := b.Load(c, lay.orderR.Base+uint64(i)*4, mem.Intermediate, NoDep)
			offDep := b.Load(c, l.OffsetAddr(u), mem.Intermediate, oDep)
			elo, ehi := g.EdgeRange(u)
			for j := elo; j < ehi; j++ {
				dep := NoDep
				if j == elo {
					dep = offDep
				}
				sDep := b.Load(c, l.StructAddr(j), mem.Structure, dep)
				v := g.NeighborAt(j)
				b.Load(c, l.PropAddr(lay.depthR, v), mem.Property, sDep)
				b.Compute(c, costEdge)
				if depth[v] == depth[u]+1 && sigma[v] > 0 {
					b.Load(c, l.PropAddr(lay.sigmaR, v), mem.Property, sDep)
					b.Load(c, l.PropAddr(lay.deltaR, v), mem.Property, sDep)
					deltaAcc[u] += sigma[u] / sigma[v] * (1 + deltaAcc[v])
					b.Compute(c, costUpdate)
				}
			}
			b.Store(c, l.PropAddr(lay.deltaR, u), mem.Property, NoDep)
			if u != s {
				b.Load(c, l.PropAddr(lay.bcR, u), mem.Property, NoDep)
				bc[u] += deltaAcc[u]
				b.Store(c, l.PropAddr(lay.bcR, u), mem.Property, NoDep)
			}
		}
		b.Barrier()
	}
	return bc
}
