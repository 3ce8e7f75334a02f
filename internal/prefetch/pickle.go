package prefetch

import "droplet/internal/mem"

// Pickle is a Pickle-style cross-core LLC property prefetcher (PAPERS.md:
// "Pickle: Flexible and Low-overhead Programmable Prefetching"). Where
// the MPP decouples at the memory controller and reacts to structure
// *prefetch* refills, this engine attaches at the shared LLC and reacts
// to structure *demand misses* from any core: each miss runs a tiny
// prefetch kernel that scans the neighbor IDs in the missing structure
// line, translates the irregular index→property pattern into precise
// property-line addresses through the registered PropArray descriptors
// (the data-type tags the hierarchy already carries identify the trigger
// stream), and issues LLC-only fills. Because the LLC is shared and
// inclusive, a line one core's miss pulled in is visible to every core —
// the cross-core benefit a private-L2 engine cannot provide — without
// polluting any private cache.

// PickleConfig parameterizes the engine.
type PickleConfig struct {
	// KernelLatency delays each issued prefetch past the triggering miss,
	// modeling the programmable prefetch-kernel execution.
	KernelLatency int64
	// MaxPerTrigger caps property lines issued per triggering miss (the
	// kernel's bounded unroll).
	MaxPerTrigger int
	// WindowLines sizes the direct-mapped recent-issue filter that stops
	// the merged cross-core stream from re-issuing the same property
	// lines; must be a power of two.
	WindowLines int
}

// DefaultPickleConfig returns the evaluated parameters.
func DefaultPickleConfig() PickleConfig {
	return PickleConfig{KernelLatency: 4, MaxPerTrigger: 32, WindowLines: 1024}
}

// PickleStats counts engine activity.
type PickleStats struct {
	Triggers           uint64 // structure demand misses reacted to
	Issued             uint64 // property prefetches appended
	RejectedNonTrigger uint64 // observed events that did not trigger
	DroppedWindow      uint64 // filtered by the recent-issue window
	DroppedDegree      uint64 // over the per-trigger cap
}

// Pickle attaches at the shared LLC, observing every core's misses.
type Pickle struct {
	LLCShared
	pag
	cfg PickleConfig
	// recent holds previously-issued line-aligned addresses.
	//droplet:addr byte
	recent []mem.Addr
	stats  PickleStats
}

// NewPickle builds the engine. scan and props come from the workload
// layout, exactly the software support the MPP uses (Section VI).
func NewPickle(cfg PickleConfig, scan LineScanner, props []PropArray) *Pickle {
	if cfg.MaxPerTrigger < 1 || cfg.WindowLines < 1 || cfg.WindowLines&(cfg.WindowLines-1) != 0 {
		panic("prefetch: pickle needs positive degree and power-of-two window")
	}
	return &Pickle{
		pag:    newPAG(scan, props),
		cfg:    cfg,
		recent: make([]mem.Addr, cfg.WindowLines),
	}
}

// Name implements Engine.
func (p *Pickle) Name() string { return "pickle" }

// Stats returns the live counters.
func (p *Pickle) Stats() *PickleStats { return &p.stats }

// Observe implements Engine: on a structure demand miss from any core,
// scan the missing line's neighbor IDs and issue delayed LLC-only
// property prefetches.
//
//droplet:hotpath
func (p *Pickle) Observe(ev AccessInfo, reqs []Req) []Req {
	if ev.LLCHit || ev.Write || ev.DType != mem.Structure || !ev.StructureBit {
		p.stats.RejectedNonTrigger++
		return reqs
	}
	p.stats.Triggers++

	issued := 0
	for _, vline := range p.propertyLines(ev.VAddr) {
		slot := (vline >> mem.LineShift) & uint64(p.cfg.WindowLines-1)
		if p.recent[slot] == vline {
			p.stats.DroppedWindow++
			continue
		}
		if issued >= p.cfg.MaxPerTrigger {
			p.stats.DroppedDegree++
			continue
		}
		p.recent[slot] = vline
		reqs = append(reqs, Req{
			Core:    ev.Core,
			VAddr:   vline,
			LLCOnly: true,
			Delay:   p.cfg.KernelLatency,
		})
		p.stats.Issued++
		issued++
	}
	return reqs
}
