// Package mem models the virtual address space of a graph-processing
// process: data-type-tagged allocations (the paper's specialized malloc,
// Section VI), a page table whose entries carry the extra "structure" bit,
// and TLBs (including the MPP's near-memory MTLB).
//
// The tagging is the backbone of both halves of the paper: the
// characterization profiles every access by data type, and DROPLET's
// data-aware streamer is triggered only by structure-tagged addresses.
package mem

import "fmt"

// DataType classifies every byte of the address space per Section II-A.
type DataType uint8

const (
	// Intermediate is "any other data": frontiers, worklists, bins, the
	// CSR offset array, per-iteration scratch.
	Intermediate DataType = iota
	// Structure is the neighbor-ID array (including interleaved weights
	// for weighted graphs).
	Structure
	// Property is a vertex-data array indexed by vertex/neighbor ID.
	Property
	numDataTypes
)

// NumDataTypes is the number of distinct data types.
const NumDataTypes = int(numDataTypes)

// String implements fmt.Stringer.
func (t DataType) String() string {
	switch t {
	case Intermediate:
		return "intermediate"
	case Structure:
		return "structure"
	case Property:
		return "property"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// Architectural constants shared across the simulator.
const (
	PageSize  = 4096
	PageShift = 12
	LineSize  = 64
	LineShift = 6
)

// Addr is a virtual or physical byte address.
type Addr = uint64

// LineAddr returns the cache-line-aligned address containing a: still a
// byte address, just with the offset bits cleared.
//
//droplet:addr a byte
//droplet:addr return byte
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// LineAddrOf builds the byte address of line number n — the inverse of
// `addr >> LineShift`. Tests use it instead of hand-rolling
// `mem.Addr(i) << mem.LineShift`, keeping them in-domain for the
// addrdomain analyzer.
//
//droplet:addr n line
//droplet:addr return byte
func LineAddrOf[Int ~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr](n Int) Addr {
	return Addr(n) << LineShift
}

// PageNumber returns the page number containing a.
//
//droplet:addr a byte
func PageNumber(a Addr) uint64 { return a >> PageShift }

// PTE is a page-table entry: the physical page number plus the extra bit
// the specialized malloc sets for structure pages (Fig. 9(b) ❶).
type PTE struct {
	PPN       uint64
	Structure bool
	Valid     bool
}

// PhysAddr returns the physical address of a, a virtual address on the
// page pte maps: pte's page frame with a's offset within the page.
//
//droplet:addr a byte
//droplet:addr return byte
func (pte PTE) PhysAddr(a Addr) Addr { return pte.PPN<<PageShift | (a & (PageSize - 1)) }

// Region is one tagged allocation.
type Region struct {
	Name string
	Base Addr //droplet:addr byte
	Size uint64
	Type DataType
}

// Contains reports whether a falls inside the region.
//
//droplet:addr a byte
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.Base+r.Size }

// End returns one past the last byte of the region.
//
//droplet:addr return byte
func (r Region) End() Addr { return r.Base + r.Size }

// AddressSpace is a process address space with a flat page table. Virtual
// pages are allocated contiguously starting at vbase; physical pages are
// assigned in first-allocation order, emulating a freshly booted machine
// without fragmentation (the mapping itself is irrelevant to the paper's
// results, but the structure bit in each PTE is load-bearing).
type AddressSpace struct {
	vbase   Addr //droplet:addr byte
	brk     Addr //droplet:addr byte
	nextPPN uint64
	ptes    []PTE // indexed by vpn - vbase>>PageShift
	regions []Region
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	const vbase = 0x1_0000_0000 // fixed mmap-ish base, page aligned
	return &AddressSpace{vbase: vbase, brk: vbase}
}

// Malloc allocates size bytes tagged with data type t, page-aligned, and
// marks every covered PTE's structure bit when t == Structure. This is the
// specialized malloc of Section VI.
func (as *AddressSpace) Malloc(name string, size uint64, t DataType) Region {
	if size == 0 {
		size = 1 // zero-byte regions still get a distinct base
	}
	pages := (size + PageSize - 1) / PageSize
	r := Region{Name: name, Base: as.brk, Size: pages * PageSize, Type: t}
	for i := uint64(0); i < pages; i++ {
		as.ptes = append(as.ptes, PTE{
			PPN:       as.nextPPN,
			Structure: t == Structure,
			Valid:     true,
		})
		as.nextPPN++
	}
	as.brk += pages * PageSize
	as.regions = append(as.regions, r)
	return r
}

// Regions returns all allocations in allocation order.
func (as *AddressSpace) Regions() []Region { return as.regions }

// Lookup returns the PTE covering a, or ok=false when unmapped (the MPP
// drops prefetches that would fault, Section V-C3).
//
//droplet:addr a byte
func (as *AddressSpace) Lookup(a Addr) (PTE, bool) {
	if a < as.vbase || a >= as.brk {
		return PTE{}, false
	}
	return as.ptes[(a-as.vbase)>>PageShift], true
}

// Translate converts a virtual to a physical address. The second result is
// false for unmapped addresses.
//
//droplet:addr a byte
func (as *AddressSpace) Translate(a Addr) (Addr, bool) {
	pte, ok := as.Lookup(a)
	if !ok {
		return 0, false
	}
	return pte.PhysAddr(a), true
}

// TypeOf classifies address a by its containing region, defaulting to
// Intermediate for unmapped addresses.
//
//droplet:addr a byte
func (as *AddressSpace) TypeOf(a Addr) DataType {
	if a < as.vbase || a >= as.brk {
		return Intermediate
	}
	// Regions are contiguous and sorted by construction: binary search.
	lo, hi := 0, len(as.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := as.regions[mid]
		switch {
		case a < r.Base:
			hi = mid
		case a >= r.End():
			lo = mid + 1
		default:
			return r.Type
		}
	}
	return Intermediate
}

// Footprint returns the total allocated bytes per data type.
func (as *AddressSpace) Footprint() [NumDataTypes]uint64 {
	var f [NumDataTypes]uint64
	for _, r := range as.regions {
		f[r.Type] += r.Size
	}
	return f
}
