package prefetch

import (
	"fmt"
	"slices"

	"droplet/internal/dram"
	"droplet/internal/inflight"
	"droplet/internal/mem"
)

// TriggerMode selects how the MPP recognizes structure cachelines on the
// DRAM refill path.
type TriggerMode uint8

const (
	// TriggerCBit reacts only to refills whose MRB C-bit is set — i.e.
	// prefetches issued by the data-aware L2 streamer (DROPLET).
	TriggerCBit TriggerMode = iota
	// TriggerStructureOracle reacts to any prefetch refill of structure
	// data, regardless of origin. This is MPP1 of Section VII-A: an MPP
	// "equipped with the ability to recognize structure data", needed by
	// streamMPP1 because a conventional streamer cannot set the C-bit
	// meaningfully.
	TriggerStructureOracle
	// TriggerStructureDemand reacts to DEMAND refills of structure data —
	// the ablation of Table IV's "when to prefetch" row: dependency
	// chains are short, so property prefetches triggered by structure
	// demands arrive too late.
	TriggerStructureDemand
)

// MPPConfig parameterizes the memory-controller-based property prefetcher
// (Table V).
type MPPConfig struct {
	// PAGLatency is the property-address-generator pipeline latency.
	PAGLatency int64
	// CoherenceCheckLatency is the cost of probing the coherence engine
	// before issuing a DRAM prefetch.
	CoherenceCheckLatency int64
	// VABEntries bounds the in-flight property prefetches (VAB+PAB
	// occupancy); when full, further prefetches from a refill are dropped.
	VABEntries int
	// MTLBEntries sizes the near-memory TLB; PageWalkLatency is paid on
	// an MTLB miss.
	MTLBEntries     int
	PageWalkLatency int64
	Trigger         TriggerMode
	// ExtraTriggerDelay models a monolithic cache-side arrangement
	// (monoDROPLETL1): the property address generation cannot start until
	// the structure line has climbed the refill path to the prefetcher's
	// cache level.
	ExtraTriggerDelay int64
	// FillL1 routes property prefetches into the requesting core's L1
	// (again the monolithic arrangement; DROPLET fills LLC+L2).
	FillL1 bool
}

// MaxMPPEntries is the largest VABEntries or MTLBEntries an MPP
// accepts. NewMPP allocates both tables whole, so an unbounded size
// would be an allocation the host cannot make; Table V's 512-entry VAB
// and 128-entry MTLB are far below it.
const MaxMPPEntries = 1 << 16

// Validate reports configuration errors.
func (c MPPConfig) Validate() error {
	if c.VABEntries < 1 || c.VABEntries > MaxMPPEntries || c.MTLBEntries < 1 || c.MTLBEntries > MaxMPPEntries {
		return fmt.Errorf("prefetch: MPP VAB %d and MTLB %d entries must each be 1 to %d",
			c.VABEntries, c.MTLBEntries, MaxMPPEntries)
	}
	return nil
}

// DefaultMPPConfig returns the Table V MPP parameters.
func DefaultMPPConfig() MPPConfig {
	return MPPConfig{
		PAGLatency:            2,
		CoherenceCheckLatency: 10,
		VABEntries:            512,
		MTLBEntries:           128,
		PageWalkLatency:       50,
		Trigger:               TriggerCBit,
	}
}

// PropArray describes one software-registered property array (the MPP's
// two 64-bit registers hold base and granularity; multi-property graphs
// register several arrays, Section VI).
type PropArray struct {
	//droplet:addr byte
	Base  mem.Addr
	Elem  uint64
	Count uint64 // number of elements, for bounds-checking scanned IDs
}

// LineScanner appends the neighbor IDs stored in the structure cacheline
// at the given virtual line address onto ids and returns the extended
// slice — the PAG's parallel scan. The caller owns and reuses the buffer,
// keeping the refill path allocation-free.
type LineScanner func(vline mem.Addr, ids []uint32) []uint32

// pag is the property address generator both property engines (the MPP
// and Pickle) embed: it scans a structure line's neighbor IDs, maps each
// in-bounds ID through every registered property array, and yields each
// distinct property line once per trigger, in scan order.
type pag struct {
	scan  LineScanner
	props []PropArray
	ids   []uint32 // scan scratch, reused across triggers
	//droplet:addr byte
	lines []mem.Addr // output scratch; tiny, so a linear dedup beats a map
}

func newPAG(scan LineScanner, props []PropArray) pag {
	return pag{
		scan:  scan,
		props: props,
		ids:   make([]uint32, 0, mem.LineSize/4),
		lines: make([]mem.Addr, 0, 32),
	}
}

// propertyLines returns the distinct property lines the structure line
// at vline points to. The slice is scratch, valid until the next call.
//
//droplet:hotpath
//droplet:addr vline byte
func (g *pag) propertyLines(vline mem.Addr) []mem.Addr {
	g.lines = g.lines[:0]
	g.ids = g.scan(vline, g.ids[:0])
	for _, id := range g.ids {
		for _, p := range g.props {
			if uint64(id) >= p.Count {
				continue
			}
			if l := mem.LineAddr(p.Base + uint64(id)*p.Elem); !slices.Contains(g.lines, l) {
				g.lines = append(g.lines, l)
			}
		}
	}
	return g.lines
}

// Chip is the MPP's interface to the on-chip hierarchy: the two
// property-prefetch delivery paths of Fig. 8. The first doubles as the
// coherence-engine probe.
type Chip interface {
	// CopyLLCToL2 copies an LLC-resident line into core's private L2
	// (and optionally L1), completing at a time of the chip's choosing.
	// It reports whether the line was on chip, that is, in the inclusive
	// LLC (which covers all private caches); an off-chip line is left
	// alone.
	CopyLLCToL2(core int, paddr mem.Addr, dtype mem.DataType, now int64, fillL1 bool) bool
	// IssueDRAMPrefetch queues a property prefetch read at the MC,
	// filling the LLC and core's private L2 (and optionally L1); it
	// returns the fill completion time.
	IssueDRAMPrefetch(core int, paddr, vaddr mem.Addr, dtype mem.DataType, now int64, fillL1 bool) int64
}

// MPPStats counts MPP activity.
type MPPStats struct {
	Triggers       uint64 // structure refills reacted to
	AddrsGenerated uint64 // property line addresses out of the PAG
	CopiedFromLLC  uint64 // already on-chip → LLC-to-L2 copy
	IssuedToDRAM   uint64
	DroppedVABFull uint64
	DroppedFault   uint64 // page-fault addresses are silently dropped
	MTLBMisses     uint64
}

// MPP is the memory-controller-based property prefetcher. It attaches at
// the MC (RefillEngine) and delivers its prefetches through the Chip
// interface bound at wiring time (ChipBinder) rather than by returning
// Reqs, because its pipeline runs at refill completion, not demand time.
type MPP struct {
	MCShared
	pag
	cfg  MPPConfig
	chip Chip
	as   *mem.AddressSpace
	mtlb *mem.TLB

	vab   inflight.Window // completion times of outstanding DRAM prefetches
	stats MPPStats
}

// NewMPP builds an MPP. scan and props come from the workload layout
// (software support of Section VI); the chip interface is bound when the
// hierarchy wires the engine (ChipBinder). An invalid config panics.
func NewMPP(cfg MPPConfig, as *mem.AddressSpace, scan LineScanner, props []PropArray) *MPP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MPP{
		pag:  newPAG(scan, props),
		cfg:  cfg,
		as:   as,
		mtlb: mem.NewTLB(cfg.MTLBEntries),
		vab:  inflight.New(cfg.VABEntries),
	}
}

// Name implements Engine.
func (m *MPP) Name() string { return "mpp" }

// Observe implements Engine; the MPP acts on refills, not demand events.
//
//droplet:hotpath
func (m *MPP) Observe(_ AccessInfo, reqs []Req) []Req { return reqs }

// Bind implements ChipBinder.
func (m *MPP) Bind(c Chip) { m.chip = c }

// Stats returns the live counters.
func (m *MPP) Stats() *MPPStats { return &m.stats }

// Triggered reports whether the MPP reacts to this refill.
func (m *MPP) Triggered(r dram.Refill) bool {
	switch m.cfg.Trigger {
	case TriggerCBit:
		return r.CBit
	case TriggerStructureOracle:
		return r.Prefetch && r.DType == mem.Structure
	case TriggerStructureDemand:
		return !r.Prefetch && r.DType == mem.Structure
	default:
		return false
	}
}

// Shootdown participates in a TLB shootdown (Section V-C3). The MTLB
// caches only property mappings, and core-side TLB entries carry the
// structure bit, so only invalidations for non-structure pages are
// applied — the coherency-traffic optimization the paper describes.
// It returns the number of MTLB entries invalidated.
func (m *MPP) Shootdown(vpns []uint64, structureBit []bool) int {
	drop := make(map[uint64]bool, len(vpns))
	for i, vpn := range vpns {
		if i < len(structureBit) && structureBit[i] {
			continue // structure-page invalidations never reach the MTLB
		}
		drop[vpn] = true
	}
	return m.mtlb.InvalidateMatching(func(vpn uint64, _ mem.PTE) bool {
		return drop[vpn]
	})
}

// OnRefill is the MC refill subscription entry point (Fig. 8 ❷): scan the
// prefetched structure line, generate property addresses, translate them
// through the MTLB, probe the coherence engine, and deliver.
//
//droplet:hotpath
func (m *MPP) OnRefill(r dram.Refill) {
	if !m.Triggered(r) {
		return
	}
	m.stats.Triggers++
	base := r.ReadyAt + m.cfg.ExtraTriggerDelay + m.cfg.PAGLatency
	for _, vline := range m.propertyLines(r.VAddr) {
		m.prefetchLine(r.CoreID, vline, base)
	}
}

//droplet:addr vline byte
func (m *MPP) prefetchLine(core int, vline mem.Addr, t int64) {
	m.stats.AddrsGenerated++

	// Virtual-to-physical translation through the MTLB (Section V-C3).
	pte, hit := m.mtlb.Lookup(vline)
	if !hit {
		m.stats.MTLBMisses++
		var ok bool
		pte, ok = m.as.Lookup(vline)
		if !ok {
			m.stats.DroppedFault++ // page fault: drop silently
			return
		}
		m.mtlb.Insert(vline, pte)
		t += m.cfg.PageWalkLatency
	}
	paddr := pte.PhysAddr(vline)

	t += m.cfg.CoherenceCheckLatency
	if m.chip.CopyLLCToL2(core, paddr, mem.Property, t, m.cfg.FillL1) {
		// Already on-chip: copied from the inclusive LLC into the private
		// L2 (Fig. 8, green path tail).
		m.stats.CopiedFromLLC++
		return
	}

	// VAB/PAB occupancy: prune completed entries, drop when full. Issue
	// times are not monotonic across triggering cores, so the prune must
	// stay eager (an entry retired at a high t stays retired).
	m.vab.Prune(t)
	if m.vab.Len() >= m.cfg.VABEntries {
		m.stats.DroppedVABFull++
		return
	}
	m.vab.Push(m.chip.IssueDRAMPrefetch(core, paddr, vline, mem.Property, t, m.cfg.FillL1))
	m.stats.IssuedToDRAM++
}
