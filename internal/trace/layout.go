package trace

import (
	"droplet/internal/graph"
	"droplet/internal/mem"
)

// Layout is the tagged address-space layout of one kernel execution: the
// CSR arrays plus the kernel's property and scratch allocations. It also
// records what the MPP needs from software (Section VI): the base address
// and element size of every indirectly-indexed property array, and the
// structure-array scan granularity.
type Layout struct {
	AS *mem.AddressSpace

	// Offsets is the CSR offset-pointer array (intermediate data, 8B/entry).
	Offsets mem.Region
	// Structure is the neighbor-ID array; entries are StructEntry bytes
	// (4 unweighted, 8 weighted — the PAG scan granularity).
	Structure   mem.Region
	StructEntry uint64

	// Properties are the registered indirectly-indexed vertex arrays, in
	// registration order; PropElem is their element size (4B, Equation 1).
	Properties []mem.Region
	PropElem   uint64

	// graph is the CSR whose neighbor array the Structure region holds
	// (the transpose for pull-based kernels); it backs ScanStructureLine.
	graph *graph.CSR
}

// NewLayout allocates the CSR arrays for g into a fresh address space.
func NewLayout(g *graph.CSR) *Layout {
	as := mem.NewAddressSpace()
	l := &Layout{AS: as, StructEntry: 4, PropElem: 4, graph: g}
	if g.Weighted() {
		l.StructEntry = 8
	}
	l.Offsets = as.Malloc("csr.offsets", uint64(g.NumVertices()+1)*8, mem.Intermediate)
	l.Structure = as.Malloc("csr.neigh", uint64(g.NumEdges())*l.StructEntry, mem.Structure)
	return l
}

// ScanStructureLine appends the neighbor IDs stored in the structure
// cacheline at virtual line address vline onto ids — the PAG's parallel
// scan of a prefetched structure cacheline (8 or 16 IDs per line depending
// on the weighted-graph granularity). Addresses outside the structure
// region append nothing. The caller owns the buffer (prefetch.LineScanner
// contract), so the scan never allocates in steady state.
//
//droplet:hotpath
//droplet:addr vline byte
//droplet:addr ids vertex
//droplet:addr return vertex
func (l *Layout) ScanStructureLine(vline mem.Addr, ids []uint32) []uint32 {
	if !l.Structure.Contains(vline) {
		return ids
	}
	first := int64((vline - l.Structure.Base) / l.StructEntry)
	count := int64(mem.LineSize / l.StructEntry)
	edges := l.graph.NumEdges()
	for i := first; i < first+count && i < edges; i++ {
		ids = append(ids, l.graph.NeighborAt(i))
	}
	return ids
}

// AddProperty allocates an indirectly-indexed per-vertex property array
// and registers it with the MPP-visible list.
func (l *Layout) AddProperty(name string, vertices int) mem.Region {
	r := l.AS.Malloc(name, uint64(vertices)*l.PropElem, mem.Property)
	l.Properties = append(l.Properties, r)
	return r
}

// AddVertexData allocates a per-vertex array that is only ever indexed by
// the loop induction variable (still property data by the paper's
// taxonomy, but not a prefetch target for the MPP).
func (l *Layout) AddVertexData(name string, vertices int) mem.Region {
	return l.AS.Malloc(name, uint64(vertices)*l.PropElem, mem.Property)
}

// AddScratch allocates intermediate data (frontiers, bins, worklists).
func (l *Layout) AddScratch(name string, bytes uint64) mem.Region {
	return l.AS.Malloc(name, bytes, mem.Intermediate)
}

// OffsetAddr returns the address of offsets[v].
func (l *Layout) OffsetAddr(v uint32) mem.Addr { return l.Offsets.Base + uint64(v)*8 }

// StructAddr returns the address of the i-th neighbor entry.
func (l *Layout) StructAddr(i int64) mem.Addr {
	return l.Structure.Base + uint64(i)*l.StructEntry
}

// PropAddr returns the address of element id within property region r.
func (l *Layout) PropAddr(r mem.Region, id uint32) mem.Addr {
	return r.Base + uint64(id)*l.PropElem
}
