// Package prefetch implements every prefetcher the paper evaluates
// (Table V) — the conventional FDP-style L2 streamer, the GHB G/DC delta
// correlation prefetcher, VLDP, DROPLET's data-aware structure-only
// streamer, and the memory-controller-based property prefetcher (MPP)
// with its PAG / VAB / MTLB / PAB pipeline — plus the Pickle-style
// cross-core LLC property engine the comparison matrix adds.
//
// All of them share one level-agnostic seam: an Engine declares where it
// taps the hierarchy (Level), which also fixes whose traffic it sees, and
// the memory system wires it at hierarchy-build time. L2- and
// LLC-attached engines observe demand events through Observe and return
// prefetch candidates the memory system executes; MC-attached engines
// (the MPP) instead react to completed DRAM refills through RefillEngine.
package prefetch

import (
	"fmt"

	"droplet/internal/dram"
	"droplet/internal/mem"
)

// Level identifies the hierarchy attachment point an engine declares.
type Level uint8

const (
	// AttachL2 taps one core's private-L2 request queue: the engine
	// observes that core's L1-miss stream (the snoop point of Fig. 9),
	// and the hierarchy holds one instance per core.
	AttachL2 Level = iota
	// AttachLLC taps the shared LLC: one instance observes the merged
	// cross-core demand stream that missed the private levels, with the
	// LLC lookup outcome attached (AccessInfo.LLCHit).
	AttachLLC
	// AttachMC taps the memory controller: one instance reacts to every
	// core's DRAM refill completions (it must implement RefillEngine;
	// Observe is never called there).
	AttachMC
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case AttachL2:
		return "L2"
	case AttachLLC:
		return "LLC"
	case AttachMC:
		return "MC"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// AccessInfo describes one demand event at an engine's attachment point:
// for AttachL2 engines, an L1 miss arriving at the private L2 (plus the
// L2 lookup outcome as training feedback); for AttachLLC engines, a
// post-L2 miss arriving at the shared LLC (plus the LLC lookup outcome).
type AccessInfo struct {
	Core int
	// VAddr and PAddr are the line-aligned virtual and physical addresses.
	//droplet:addr byte
	VAddr mem.Addr
	//droplet:addr byte
	PAddr mem.Addr
	DType mem.DataType
	// StructureBit is the extra TLB bit of Fig. 9(b): set when the page
	// belongs to a structure allocation.
	StructureBit bool
	// L2Hit is the private-L2 lookup outcome (AttachL2 engines only; LLC
	// engines observe only the stream that already missed the L2).
	L2Hit bool
	// LLCHit is the shared-LLC lookup outcome (AttachLLC engines only).
	LLCHit bool
	Write  bool
	Now    int64
}

// Req is a prefetch candidate produced by an engine's Observe.
type Req struct {
	// Core is the triggering core: the prefetch translates through its
	// memo and, unless LLCOnly is set, fills its private cache(s).
	Core int
	// VAddr is the line-aligned virtual address to prefetch.
	//droplet:addr byte
	VAddr mem.Addr
	// CBit marks the request as an identified structure prefetch from the
	// data-aware streamer; the MRB keeps it so the MPP can react to the
	// refill (Section V-C1).
	CBit bool
	// ViaL3Queue routes the request directly into the L3 request queue
	// (the data-aware streamer's fill path) instead of the L2 queue.
	ViaL3Queue bool
	// FillL1 additionally installs the line in the L1 (the monolithic
	// monoDROPLETL1 arrangement).
	FillL1 bool
	// LLCOnly fills the shared LLC and nothing above it — the cross-core
	// delivery of an LLC-attached engine, visible to every core without
	// polluting any private cache.
	LLCOnly bool
	// Delay postpones execution by this many cycles after the observed
	// event (e.g. the pickle engine's prefetch-kernel latency).
	Delay int64
}

// Engine is the level-agnostic interface of every prefetch engine. The
// hierarchy wires engines at build time according to their declared
// Level (memsys.Hierarchy.AttachEngine) instead of hardwiring an L2-only
// call site.
type Engine interface {
	// Name identifies the engine in stats and experiment output.
	Name() string
	// Level declares the attachment point, and with it the observed
	// traffic: one core's stream at AttachL2, every core's at AttachLLC
	// and AttachMC.
	Level() Level
	// Observe sees one demand event at the engine's attachment point and
	// appends any prefetch requests to issue now onto reqs, returning the
	// extended slice. The caller owns the buffer and reuses it across
	// calls, so implementations must not retain it; passing a zero-length
	// slice with spare capacity keeps the demand path allocation-free.
	Observe(ev AccessInfo, reqs []Req) []Req
}

// RefillEngine is the contract of AttachMC engines: they act on completed
// DRAM read fills (delivered when simulated time reaches the fill's
// completion) instead of demand observations.
type RefillEngine interface {
	Engine
	OnRefill(r dram.Refill)
}

// ChipBinder is implemented by engines that deliver prefetches through
// the chip interface themselves (the MPP's refill-time pipeline) rather
// than by returning Reqs from Observe. AttachEngine calls Bind exactly
// once, before the engine is wired in.
type ChipBinder interface{ Bind(Chip) }

// L2Local declares a per-core private-L2 attachment; embed it to satisfy
// the Level half of Engine at zero size and zero dispatch cost.
type L2Local struct{}

// Level implements Engine.
func (L2Local) Level() Level { return AttachL2 }

// LLCShared declares a shared-LLC attachment (the merged cross-core
// demand stream); embed it to satisfy the Level half of Engine.
type LLCShared struct{}

// Level implements Engine.
func (LLCShared) Level() Level { return AttachLLC }

// MCShared declares a memory-controller attachment (refill reactions);
// embed it to satisfy the Level half of Engine.
type MCShared struct{}

// Level implements Engine.
func (MCShared) Level() Level { return AttachMC }
