package trace

import (
	"droplet/internal/graph"
	"droplet/internal/mem"
)

type dobfsLayout struct {
	l       *Layout
	depthR  mem.Region
	frontR  mem.Region
	bitmapR mem.Region
}

func newDOBFSLayout(g *graph.CSR, n int) dobfsLayout {
	l := NewLayout(g)
	return dobfsLayout{
		l:       l,
		depthR:  l.AddProperty("dobfs.depth", n),
		frontR:  l.AddScratch("dobfs.frontier", uint64(n+1)*4),
		bitmapR: l.AddScratch("dobfs.bitmap", uint64(n/8+1)),
	}
}

// DOBFS generates the trace of GAP's direction-optimizing BFS (an
// extension beyond the paper's plain BFS benchmark). The bottom-up phase
// has the access pattern the paper attributes to BFS's lower prefetch
// accuracy: structure streaming restarts from random unvisited vertices,
// and the in-frontier bitmap adds intermediate traffic. tr must be g's
// transpose. Results are identical to algo.DOBFS with the same options.
func DOBFS(g, tr *graph.CSR, source uint32, alpha, beta int, opt Options) (*Trace, []int64) {
	opt = opt.withDefaults()
	if alpha == 0 {
		alpha = 15
	}
	if beta == 0 {
		beta = 18
	}
	lay := newDOBFSLayout(g, g.NumVertices())
	return materialize(lay.l, opt.Cores, opt.MaxEvents, func(b Sink) []int64 {
		return emitDOBFS(b, g, tr, source, alpha, beta, lay, opt)
	})
}

func emitDOBFS(b Sink, g, tr *graph.CSR, source uint32, alpha, beta int, lay dobfsLayout, opt Options) []int64 {
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
	frontierEdges := int64(g.Degree(source))
	unexplored := g.NumEdges()
	level := int64(1)

	for len(frontier) > 0 {
		if frontierEdges > unexplored/int64(alpha) {
			// Bottom-up: every unvisited vertex scans incoming neighbors
			// for a parent in the frontier bitmap.
			inFrontier := make([]bool, n)
			for c := 0; c < opt.Cores; c++ {
				for _, v := range chunk(frontier, opt.Cores, c) {
					inFrontier[v] = true
					b.Store(c, lay.bitmapR.Base+uint64(v/8), mem.Intermediate, NoDep)
				}
			}
			b.Barrier()
			for {
				var next []uint32
				for c := 0; c < opt.Cores; c++ {
					lo, hi := shard(n, opt.Cores, c)
					for v := lo; v < hi; v++ {
						b.Compute(c, costVertex)
						dDep := b.Load(c, l.PropAddr(lay.depthR, uint32(v)), mem.Property, NoDep)
						if depth[v] != infDist {
							continue
						}
						offDep := b.Load(c, l.OffsetAddr(uint32(v)), mem.Intermediate, NoDep)
						elo, ehi := tr.EdgeRange(uint32(v))
						for i := elo; i < ehi; i++ {
							dep := NoDep
							if i == elo {
								dep = offDep
							}
							sDep := b.Load(c, l.StructAddr(i), mem.Structure, dep)
							u := tr.NeighborAt(i)
							b.Load(c, lay.bitmapR.Base+uint64(u/8), mem.Intermediate, sDep)
							b.Compute(c, costEdge)
							if inFrontier[u] {
								depth[v] = level
								b.Store(c, l.PropAddr(lay.depthR, uint32(v)), mem.Property, dDep)
								next = append(next, uint32(v))
								break
							}
						}
					}
				}
				level++
				b.Barrier()
				if len(next) == 0 {
					return depth
				}
				if len(next) < n/beta {
					frontier = next
					break
				}
				inFrontier = make([]bool, n)
				for c := 0; c < opt.Cores; c++ {
					for _, v := range chunk(next, opt.Cores, c) {
						inFrontier[v] = true
						b.Store(c, lay.bitmapR.Base+uint64(v/8), mem.Intermediate, NoDep)
					}
				}
				b.Barrier()
			}
		} else {
			// Top-down: same as the plain BFS kernel.
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
							perCoreNext[c] = append(perCoreNext[c], v)
						}
					}
				}
			}
			frontier = frontier[:0]
			for _, pc := range perCoreNext {
				frontier = append(frontier, pc...)
			}
			level++
			b.Barrier()
		}
		frontierEdges = 0
		for _, u := range frontier {
			frontierEdges += int64(g.Degree(u))
			unexplored -= int64(g.Degree(u))
		}
	}
	return depth
}
