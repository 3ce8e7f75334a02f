// Package memsys assembles the simulated memory hierarchy of Table I:
// per-core private L1D and L2 caches, a shared inclusive LLC, and a single
// memory controller in front of DRAM. It routes demand accesses and wires
// prefetch engines at their declared attachment points (AttachEngine):
// per-core L2 engines snoop the local L1-miss stream, shared LLC engines
// observe the merged cross-core demand stream, and MC engines react to
// DRAM refills. The hierarchy also implements the prefetch.Chip interface
// bound into ChipBinder engines like the MPP (coherence probe + the two
// property-delivery paths of Fig. 8); ExecutePrefetch delivers every
// engine-issued request through those same two paths.
package memsys

import (
	"fmt"
	"math/bits"

	"droplet/internal/cache"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/prefetch"
)

// Level identifies which level of the hierarchy serviced a demand access.
type Level uint8

// Hierarchy levels, closest first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelDRAM
	NumLevels = 4
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// MaxCores is the most cores one hierarchy serves: the width of the
// LLC line's upper-residency mask (cache.Victim.Upper), which records
// which cores' private caches may hold the line.
const MaxCores = 16

// Config describes the hierarchy.
type Config struct {
	Cores int
	L1    cache.Config
	L2    cache.Config
	LLC   cache.Config
	DRAM  dram.Config
	// NoL2 removes the private L2s entirely (the leftmost bar of
	// Fig. 4b(ii)).
	NoL2 bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return fmt.Errorf("memsys: %d cores, want 1 to %d", c.Cores, MaxCores)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if !c.NoL2 {
		if err := c.L2.Validate(); err != nil {
			return err
		}
	}
	if err := c.LLC.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// Stats aggregates hierarchy-wide counters.
type Stats struct {
	// ServicedBy counts demand loads+stores by the level that supplied
	// the data, per data type (Fig. 7's breakdown).
	ServicedBy [NumLevels][mem.NumDataTypes]uint64
	// LLCDemandMissesByType counts demand requests that went to DRAM
	// (the Fig. 13 numerator).
	LLCDemandMissesByType [mem.NumDataTypes]uint64
	// PrefetchIssuedByType counts prefetch fills actually issued (after
	// on-chip filtering), per data type — the accuracy denominator.
	PrefetchIssuedByType [mem.NumDataTypes]uint64
	// PrefetchFilteredOnChip counts prefetch requests dropped because the
	// target line was already in the destination cache.
	PrefetchFilteredOnChip uint64
	// LatencyByLevel accumulates demand latency (completion - request) per
	// servicing level and data type; with ServicedBy as the denominator it
	// gives average effective latencies, exposing in-flight wait costs.
	LatencyByLevel [NumLevels][mem.NumDataTypes]int64
	// DemandMergedInFlight counts demand accesses that hit a line whose
	// fill was still in flight (readyAt in the future). In private caches
	// the in-flight line is overwhelmingly a prefetch that arrived later
	// than the demand wanted it — the telemetry timeliness signal.
	DemandMergedInFlight [mem.NumDataTypes]uint64
}

// Hierarchy is the complete memory system.
type Hierarchy struct {
	cfg Config
	as  *mem.AddressSpace
	l1  []*cache.Cache
	l2  []*cache.Cache
	llc *cache.Cache
	mc  *dram.MemoryController
	// l2eng holds the per-core L2-attached engines (nil entries mean no
	// engine); llceng holds the shared LLC-attached engines, which observe
	// every core's post-L2 stream.
	l2eng  []prefetch.Engine
	llceng []prefetch.Engine

	// Refill subscribers (the MPP) act at refill-completion time, which
	// lies in the future when the read is scheduled. Acting immediately
	// would issue follow-on prefetches with future timestamps and corrupt
	// the MC's queue cursors, so every DRAM read (read) buffers its refill
	// in a min-heap, delivered once simulated time catches up — but only
	// while a subscriber exists.
	refillSubs []func(dram.Refill)
	pending    refillHeap

	// memos are per-core direct-mapped translation memos in front of the
	// page table; pfbuf is the reusable prefetch-request scratch buffer
	// threaded through Engine.Observe. Both exist so the demand access
	// path performs zero heap allocations in steady state.
	memos []translationMemo
	pfbuf []prefetch.Req

	stats Stats
}

// memoSize is the number of entries in each core's direct-mapped
// translation memo (a power of two; 256 entries ≈ 6KB per core).
const memoSize = 256

// memoEntry caches one page translation plus the page's data type. The
// address-space layout is static (regions are never freed or remapped),
// so entries never need invalidation; init distinguishes an empty slot
// from a memoized negative (unmapped) lookup, which carries a PTE with
// Valid=false.
type memoEntry struct {
	vpn   uint64
	pte   mem.PTE
	dtype mem.DataType
	init  bool
}

type translationMemo [memoSize]memoEntry

// translate resolves vline through core's memo, falling back to the page
// table (and the region table for the data type) on a memo miss. ok is
// false for unmapped addresses.
//
//droplet:addr vline byte
func (h *Hierarchy) translate(core int, vline mem.Addr) (pte mem.PTE, dtype mem.DataType, ok bool) {
	vpn := vline >> mem.PageShift
	e := &h.memos[core][vpn&(memoSize-1)]
	if !e.init || e.vpn != vpn {
		e.vpn = vpn
		e.pte, _ = h.as.Lookup(vline)
		e.dtype = h.as.TypeOf(vline)
		e.init = true
	}
	return e.pte, e.dtype, e.pte.Valid
}

// New builds the hierarchy over the given address space. Invalid configs
// return an error.
func New(cfg Config, as *mem.AddressSpace) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every cache instance gets an independent deterministic seed derived
	// from its level and core id, so Random-replacement siblings do not
	// evict in lockstep. LRU and the RRIP family ignore the seed.
	llcCfg := cfg.LLC
	llcCfg.Seed = cache.SaltSeed(cfg.LLC.Seed, 3<<8)
	h := &Hierarchy{
		cfg:   cfg,
		as:    as,
		l1:    make([]*cache.Cache, cfg.Cores),
		l2:    make([]*cache.Cache, cfg.Cores),
		llc:   cache.New(llcCfg),
		mc:    dram.NewMemoryController(cfg.DRAM),
		l2eng: make([]prefetch.Engine, cfg.Cores),
		memos: make([]translationMemo, cfg.Cores),
		pfbuf: make([]prefetch.Req, 0, 64),
	}
	for i := 0; i < cfg.Cores; i++ {
		l1Cfg := cfg.L1
		l1Cfg.Seed = cache.SaltSeed(cfg.L1.Seed, 1<<8|uint64(i))
		h.l1[i] = cache.New(l1Cfg)
		if !cfg.NoL2 {
			l2Cfg := cfg.L2
			l2Cfg.Seed = cache.SaltSeed(cfg.L2.Seed, 2<<8|uint64(i))
			h.l2[i] = cache.New(l2Cfg)
		}
	}
	return h, nil
}

// SubscribeRefill registers a callback invoked for every completed DRAM
// read fill, delivered when simulated time reaches the fill's completion
// (the MPP attach point).
func (h *Hierarchy) SubscribeRefill(f func(dram.Refill)) {
	h.refillSubs = append(h.refillSubs, f)
}

// read schedules a DRAM read and returns its completion time. While
// refill subscribers exist it also buffers the read's refill — the MRB
// fields of req plus the issue and completion times — for drainRefills.
func (h *Hierarchy) read(req dram.Request, now int64) int64 {
	complete := h.mc.Access(req, now)
	if len(h.refillSubs) > 0 {
		h.pending.push(dram.Refill{
			Addr:     mem.LineAddr(req.Addr),
			VAddr:    mem.LineAddr(req.VAddr),
			CoreID:   req.CoreID,
			Prefetch: req.Prefetch,
			CBit:     req.CBit,
			DType:    req.DType,
			ReadyAt:  complete,
			IssuedAt: now,
		})
	}
	return complete
}

// drainRefills delivers every buffered refill that has completed by now.
func (h *Hierarchy) drainRefills(now int64) {
	for len(h.pending) > 0 && h.pending[0].ReadyAt <= now {
		r := h.pending.pop()
		for _, f := range h.refillSubs {
			f(r)
		}
	}
}

// refillHeap is a min-heap of refills by completion time. The sift
// routines mirror container/heap's algorithm exactly (same comparison and
// swap sequence, so equal-ReadyAt ties pop in the same order), but operate
// on the concrete element type: pushing through the stdlib's any-typed
// interface boxed every refill onto the heap — one heap allocation per
// DRAM fill on the demand path.
type refillHeap []dram.Refill

func (q *refillHeap) push(r dram.Refill) {
	*q = append(*q, r)
	s := *q
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(s[j].ReadyAt < s[i].ReadyAt) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (q *refillHeap) pop() dram.Refill {
	s := *q
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift the new root down over the first n elements.
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].ReadyAt < s[j1].ReadyAt {
			j = j2
		}
		if !(s[j].ReadyAt < s[i].ReadyAt) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	r := s[n]
	*q = s[:n]
	return r
}

// AttachEngine wires e into the hierarchy at its declared attachment
// level: an AttachL2 engine serves the one core named by core, an
// AttachLLC engine observes every core's merged stream, and an AttachMC
// engine, which must be a RefillEngine, reacts to every core's refills
// (core is ignored for the shared levels). Engines implementing
// ChipBinder are bound to the hierarchy's chip interface before wiring.
func (h *Hierarchy) AttachEngine(core int, e prefetch.Engine) error {
	if b, ok := e.(prefetch.ChipBinder); ok {
		b.Bind(h)
	}
	switch e.Level() {
	case prefetch.AttachL2:
		if core < 0 || core >= h.cfg.Cores {
			return fmt.Errorf("memsys: engine %s: core %d out of range [0,%d)", e.Name(), core, h.cfg.Cores)
		}
		h.l2eng[core] = e
	case prefetch.AttachLLC:
		h.llceng = append(h.llceng, e)
	case prefetch.AttachMC:
		re, ok := e.(prefetch.RefillEngine)
		if !ok {
			return fmt.Errorf("memsys: engine %s: MC attachment requires a RefillEngine", e.Name())
		}
		h.SubscribeRefill(re.OnRefill)
	default:
		return fmt.Errorf("memsys: engine %s: unknown attachment level %s", e.Name(), e.Level())
	}
	return nil
}

// NumCores returns the number of cores the hierarchy serves.
func (h *Hierarchy) NumCores() int { return h.cfg.Cores }

// RefillClimbLatency returns the cycles a refill needs to climb from the
// MC through LLC and L2 into the L1 — the trigger handicap of a
// monolithic L1 prefetcher versus DROPLET's MC-side MPP.
func (h *Hierarchy) RefillClimbLatency() int64 {
	lat := int64(h.cfg.LLC.LatencyData) + int64(h.cfg.L1.LatencyData)
	if !h.cfg.NoL2 {
		lat += int64(h.cfg.L2.LatencyData)
	}
	return lat
}

// MC returns the memory controller (bandwidth and traffic stats).
func (h *Hierarchy) MC() *dram.MemoryController { return h.mc }

// LLC returns the shared cache (stats access).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// L1 and L2 return a core's private caches (L2 may be nil under NoL2).
func (h *Hierarchy) L1(core int) *cache.Cache { return h.l1[core] }

// L2 returns a core's private L2 cache, or nil when the hierarchy was
// built with NoL2.
func (h *Hierarchy) L2(core int) *cache.Cache { return h.l2[core] }

// Stats returns the live hierarchy counters.
func (h *Hierarchy) Stats() *Stats { return &h.stats }

// AddressSpace returns the address space the hierarchy translates with.
func (h *Hierarchy) AddressSpace() *mem.AddressSpace { return h.as }

// Access performs a demand access from core at time now and returns the
// completion time plus the level that serviced it.
//
//droplet:hotpath
//droplet:addr vaddr byte
func (h *Hierarchy) Access(core int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64) (int64, Level) {
	vline := mem.LineAddr(vaddr)
	pte, _, ok := h.translate(core, vline)
	if !ok {
		// Unmapped accesses indicate a trace/layout bug.
		panic(fmt.Sprintf("memsys: access to unmapped address %#x", vaddr))
	}
	paddr := pte.PPN<<mem.PageShift | (vline & (mem.PageSize - 1))

	if len(h.pending) > 0 {
		h.drainRefills(now)
	}

	t := now
	l1 := h.l1[core]
	if ready, hit := l1.Access(paddr, dtype, write, t); hit {
		if ready > t {
			h.stats.DemandMergedInFlight[dtype]++
			ready = h.expedite(paddr, ready, t)
		}
		h.stats.ServicedBy[LevelL1][dtype]++
		complete := ready + int64(h.cfg.L1.LatencyData)
		h.stats.LatencyByLevel[LevelL1][dtype] += complete - now
		return complete, LevelL1
	}
	t += int64(h.cfg.L1.LatencyTag)

	// The L1 miss enters the L2 request queue, which the core's L2-attached
	// engine snoops (Fig. 9). The data-aware path sees the TLB's structure
	// bit.
	l2 := h.l2[core]
	var l2Ready int64
	l2Hit := false
	if l2 != nil {
		l2Ready, l2Hit = l2.Access(paddr, dtype, write, t)
	}

	if pf := h.l2eng[core]; pf != nil {
		reqs := pf.Observe(prefetch.AccessInfo{
			Core:         core,
			VAddr:        vline,
			PAddr:        paddr,
			DType:        dtype,
			StructureBit: pte.Structure,
			L2Hit:        l2Hit,
			Write:        write,
			Now:          t,
		}, h.pfbuf[:0])
		for _, r := range reqs {
			h.ExecutePrefetch(r, t)
		}
		h.pfbuf = reqs[:0] // keep any grown capacity for the next access
	}

	if l2Hit {
		if l2Ready > t {
			h.stats.DemandMergedInFlight[dtype]++
			l2Ready = h.expedite(paddr, l2Ready, t)
		}
		complete := max64(l2Ready, t) + int64(h.cfg.L2.LatencyData)
		// Not fromLLC, so no residency mark: the line being resident in
		// this core's L2 proves its bit is already set in the LLC copy —
		// the bit was set when the L2 installed it, and an intervening LLC
		// eviction would have back-invalidated the L2 (so the L2 hit could
		// not happen).
		h.install(core, paddr, dtype, complete, false, true, false, write)
		h.stats.ServicedBy[LevelL2][dtype]++
		h.stats.LatencyByLevel[LevelL2][dtype] += complete - now
		return complete, LevelL2
	}
	if l2 != nil {
		t += int64(h.cfg.L2.LatencyTag)
	}

	if ready, hit := h.llc.Access(paddr, dtype, write, t); hit {
		if ready > t {
			h.stats.DemandMergedInFlight[dtype]++
			ready = h.expedite(paddr, ready, t)
		}
		complete := max64(ready, t) + int64(h.cfg.LLC.LatencyData)
		h.install(core, paddr, dtype, complete, true, true, false, write)
		h.stats.ServicedBy[LevelL3][dtype]++
		h.stats.LatencyByLevel[LevelL3][dtype] += complete - now
		if len(h.llceng) != 0 {
			h.observeLLC(core, vline, paddr, dtype, pte.Structure, write, true, t)
		}
		return complete, LevelL3
	}
	t += int64(h.cfg.LLC.LatencyTag)

	// Off-chip.
	h.stats.LLCDemandMissesByType[dtype]++
	complete := h.read(dram.Request{
		Addr:   paddr,
		VAddr:  vline,
		CoreID: core,
		DType:  dtype,
	}, t)
	h.fillLLC(paddr, dtype, complete, false)
	h.install(core, paddr, dtype, complete, true, true, false, write)
	h.stats.ServicedBy[LevelDRAM][dtype]++
	h.stats.LatencyByLevel[LevelDRAM][dtype] += complete - now
	if len(h.llceng) != 0 {
		h.observeLLC(core, vline, paddr, dtype, pte.Structure, write, false, t)
	}
	return complete, LevelDRAM
}

// observeLLC delivers one demand event at the shared LLC to every
// LLC-attached engine. It runs after the demand itself has been serviced,
// so a triggering miss is never delayed by the prefetches it spawns; the
// L2 observation's scratch buffer is idle by then and is reused.
//
//droplet:hotpath
//droplet:addr vline byte
//droplet:addr paddr byte
func (h *Hierarchy) observeLLC(core int, vline, paddr mem.Addr, dtype mem.DataType, sbit, write, llcHit bool, now int64) {
	ev := prefetch.AccessInfo{
		Core:         core,
		VAddr:        vline,
		PAddr:        paddr,
		DType:        dtype,
		StructureBit: sbit,
		LLCHit:       llcHit,
		Write:        write,
		Now:          now,
	}
	for _, e := range h.llceng {
		reqs := e.Observe(ev, h.pfbuf[:0])
		for _, r := range reqs {
			h.ExecutePrefetch(r, now)
		}
		h.pfbuf = reqs[:0]
	}
}

// expedite caps the wait on an in-flight fill at the cheapest demand
// alternative: forwarding from an LLC-resident copy, or a fresh demand
// read that the MC schedules at demand priority (promoting the merged
// prefetch, the C-bit's scheduling role). Without this, a demand merging
// with a slow prefetch would wait longer than if the prefetch had never
// been issued. Callers only invoke it when ready > now (the line is
// actually in flight), keeping the call off the plain-hit fast path.
//
//droplet:addr paddr byte
func (h *Hierarchy) expedite(paddr mem.Addr, ready, now int64) int64 {
	llcLat := int64(h.cfg.LLC.LatencyTag + h.cfg.LLC.LatencyData)
	if lr, ok := h.llc.Lookup(paddr); ok && lr < ready {
		if alt := max64(lr, now) + llcLat; alt < ready {
			ready = alt
		}
	}
	if est := h.mc.EstimateDemand(paddr, now) + int64(h.cfg.LLC.LatencyTag); est < ready {
		ready = est
	}
	return ready
}

// install places a line arriving at readyAt into core's private caches
// and keeps the hierarchy inclusive. A line from the LLC (fromLLC) sets
// core's bit in the LLC copy's residency mask — every such caller has just
// touched the line there, so the MRU hint is warm — and fills the L2; the
// L1 takes the line when intoL1 is set or there is no L2. pf marks
// prefetch fills, and write leaves the L1 copy dirty (a demand store). An
// L2 victim back-invalidates the L1 (Table I: inclusive at all levels),
// and a dirty victim marks the level below.
//
//droplet:addr paddr byte
func (h *Hierarchy) install(core int, paddr mem.Addr, dtype mem.DataType, readyAt int64, fromLLC, intoL1, pf, write bool) {
	l1, l2 := h.l1[core], h.l2[core]
	if fromLLC {
		h.markUpper(core, paddr)
		if l2 != nil {
			v := l2.Fill(paddr, dtype, readyAt, pf)
			if v.Valid {
				if v.Dirty {
					h.llc.MarkDirty(v.Addr)
				}
				if lv := l1.Invalidate(v.Addr); lv.Valid && lv.Dirty {
					h.llc.MarkDirty(v.Addr)
				}
			}
		}
	}
	if intoL1 || l2 == nil {
		v := l1.Fill(paddr, dtype, readyAt, pf)
		if write {
			l1.MarkDirty(paddr)
		}
		if v.Valid && v.Dirty {
			if l2 != nil {
				l2.MarkDirty(v.Addr)
			} else {
				h.llc.MarkDirty(v.Addr)
			}
		}
	}
}

// fillLLC installs a line into the shared LLC, handling inclusive
// back-invalidation of every core's private caches and dirty writebacks
// to DRAM.
//
//droplet:addr paddr byte
func (h *Hierarchy) fillLLC(paddr mem.Addr, dtype mem.DataType, readyAt int64, pf bool) {
	v := h.llc.Fill(paddr, dtype, readyAt, pf)
	if h.fillLLCEvict(v) {
		h.mc.Access(dram.Request{Addr: v.Addr, Write: true, DType: v.DType}, readyAt)
	}
}

// fillLLCEvict performs the inclusive back-invalidation for an LLC
// victim and reports whether it needs a DRAM writeback. Split from
// fillLLC so the functional-warming path can maintain inclusion without
// generating memory-controller traffic.
func (h *Hierarchy) fillLLCEvict(v cache.Victim) bool {
	if !v.Valid {
		return false
	}
	dirty := v.Dirty
	// Probe only cores whose bit is set in the victim's residency mask.
	// A clear bit proves the core never installed the line while this
	// LLC copy was resident, so its private caches cannot hold it and the
	// Invalidate would be a guaranteed no-op; a stale set bit (the core
	// evicted its copy on its own) just costs a miss-probe.
	for mask := v.Upper; mask != 0; mask &= mask - 1 {
		c := bits.TrailingZeros16(mask)
		if lv := h.l1[c].Invalidate(v.Addr); lv.Valid && lv.Dirty {
			dirty = true
		}
		if h.l2[c] != nil {
			if lv := h.l2[c].Invalidate(v.Addr); lv.Valid && lv.Dirty {
				dirty = true
			}
		}
	}
	return dirty
}

// Warm implements cpu.WarmPort: it advances the functional state an
// access would leave behind — translation memos, cache contents,
// replacement and dirty bits, inclusion bookkeeping — without computing
// detailed timing. No memory-controller traffic is generated (victim
// writebacks are timing-only and are dropped), no prefetchers run, and
// no refill callbacks fire, so a warmed epoch costs a cache walk instead
// of a full hierarchy simulation. Hit/miss counters in the caches still
// advance (the accesses are architecturally real); the demand
// ServicedBy/latency attribution stays untouched because no service
// level or latency is computed.
//
//droplet:addr vaddr byte
func (h *Hierarchy) Warm(core int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64) {
	vline := mem.LineAddr(vaddr)
	pte, _, ok := h.translate(core, vline)
	if !ok {
		panic(fmt.Sprintf("memsys: access to unmapped address %#x", vaddr))
	}
	paddr := pte.PPN<<mem.PageShift | (vline & (mem.PageSize - 1))

	l1 := h.l1[core]
	if _, hit := l1.Access(paddr, dtype, write, now); hit {
		return
	}
	l2 := h.l2[core]
	if l2 != nil {
		if _, hit := l2.Access(paddr, dtype, write, now); hit {
			h.install(core, paddr, dtype, now, false, true, false, write)
			return
		}
	}
	if _, hit := h.llc.Access(paddr, dtype, write, now); !hit {
		// Off-chip: install the line at every level, ready immediately.
		h.fillLLCEvict(h.llc.Fill(paddr, dtype, now, false))
	}
	h.install(core, paddr, dtype, now, true, true, false, write)
}

// markUpper records that core is installing a private copy of paddr, so
// the LLC's eventual eviction knows which private caches to probe. The
// line is resident in the LLC at every call site (install marks only a
// line it takes from the LLC — the inclusion invariant), so the mark
// lands on the live copy.
//
//droplet:addr paddr byte
func (h *Hierarchy) markUpper(core int, paddr mem.Addr) {
	h.llc.MarkUpper(paddr, 1<<uint(core))
}

// ExecutePrefetch runs one engine-issued prefetch request at time now
// (plus the request's own Delay). After translation it takes Fig. 8's
// two delivery paths, the ones the MPP drives through the Chip
// interface: a line already on chip is copied from the LLC
// (CopyLLCToL2), and any other line is read from DRAM
// (IssueDRAMPrefetch's path, keeping the request's C-bit).
//
//droplet:hotpath
func (h *Hierarchy) ExecutePrefetch(r prefetch.Req, now int64) {
	now += r.Delay
	vline := mem.LineAddr(r.VAddr)
	pte, dtype, ok := h.translate(r.Core, vline)
	if !ok {
		return // prefetch past a region: drop silently
	}
	paddr := pte.PPN<<mem.PageShift | (vline & (mem.PageSize - 1))

	if r.LLCOnly {
		// Cross-core delivery: fill the shared LLC and nothing above it, so
		// every core sees the line without any private cache polluted.
		if h.LineOnChip(paddr) {
			h.stats.PrefetchFilteredOnChip++
			return
		}
		h.dramPrefetch(r, paddr, vline, dtype, now+int64(h.cfg.LLC.LatencyTag))
		return
	}
	if !r.ViaL3Queue {
		// Conventional path: the request sits in the L2 queue and probes
		// the LLC on its way out.
		now += int64(h.cfg.L2.LatencyTag)
	}
	if !h.CopyLLCToL2(r.Core, paddr, dtype, now, r.FillL1) {
		h.dramPrefetch(r, paddr, vline, dtype, now+int64(h.cfg.LLC.LatencyTag))
	}
}

// LineOnChip implements prefetch.Chip: the inclusive LLC covers all
// private caches, so an LLC probe is the coherence-engine check.
//
//droplet:hotpath
//droplet:addr paddr byte
func (h *Hierarchy) LineOnChip(paddr mem.Addr) bool {
	_, ok := h.llc.Lookup(paddr)
	return ok
}

// CopyLLCToL2 implements prefetch.Chip (Fig. 8: on-chip property line
// copied from the inclusive LLC into the requesting core's private L2).
// Lines already resident in the destination cache are left untouched,
// and it reports whether the line was on chip at all: the hierarchy is
// inclusive, so a line in the destination cache is in the LLC too.
//
//droplet:hotpath
//droplet:addr paddr byte
func (h *Hierarchy) CopyLLCToL2(core int, paddr mem.Addr, dtype mem.DataType, now int64, fillL1 bool) bool {
	dest := h.l1[core]
	if l2 := h.l2[core]; l2 != nil && !fillL1 {
		dest = l2
	}
	if _, resident := dest.Lookup(paddr); resident {
		h.stats.PrefetchFilteredOnChip++
		return true
	}
	ready, resident := h.llc.Lookup(paddr)
	if !resident {
		return false
	}
	h.llc.Promote(paddr)
	complete := max64(ready, now) + int64(h.cfg.LLC.LatencyData)
	h.install(core, paddr, dtype, complete, true, fillL1, true, false)
	h.stats.PrefetchIssuedByType[dtype]++
	return true
}

// IssueDRAMPrefetch implements prefetch.Chip (Fig. 8: off-chip property
// prefetch queued at the MC, filling the LLC and the private L2).
//
//droplet:hotpath
//droplet:addr paddr byte
//droplet:addr vaddr byte
func (h *Hierarchy) IssueDRAMPrefetch(core int, paddr, vaddr mem.Addr, dtype mem.DataType, now int64, fillL1 bool) int64 {
	return h.dramPrefetch(prefetch.Req{Core: core, FillL1: fillL1}, paddr, vaddr, dtype, now)
}

// dramPrefetch reads the line of prefetch r from DRAM into the LLC and,
// unless r is LLC-only, installs it into r.Core's private caches. The
// read carries r's C-bit, so the MPP can react to its refill. It returns
// the fill's completion time.
//
//droplet:addr paddr byte
//droplet:addr vline byte
func (h *Hierarchy) dramPrefetch(r prefetch.Req, paddr, vline mem.Addr, dtype mem.DataType, now int64) int64 {
	complete := h.read(dram.Request{
		Addr:     paddr,
		VAddr:    vline,
		CoreID:   r.Core,
		Prefetch: true,
		CBit:     r.CBit,
		DType:    dtype,
	}, now)
	h.fillLLC(paddr, dtype, complete, true)
	if !r.LLCOnly {
		h.install(r.Core, paddr, dtype, complete, true, r.FillL1, true, false)
	}
	h.stats.PrefetchIssuedByType[dtype]++
	return complete
}

// PrefetchUseful returns the demand hits on prefetched lines anywhere in
// the hierarchy, per data type (the accuracy numerator of Fig. 14): a
// prefetched line that was demanded before eviction was useful even if
// the demand found it in the shared LLC rather than the private L2.
func (h *Hierarchy) PrefetchUseful() [mem.NumDataTypes]uint64 {
	var u [mem.NumDataTypes]uint64
	for c := 0; c < h.cfg.Cores; c++ {
		for dt := 0; dt < mem.NumDataTypes; dt++ {
			u[dt] += h.l1[c].Stats().PrefetchHits[dt]
			if h.l2[c] != nil {
				u[dt] += h.l2[c].Stats().PrefetchHits[dt]
			}
		}
	}
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		u[dt] += h.llc.Stats().PrefetchHits[dt]
	}
	return u
}

// L2HitRate returns the aggregate demand hit rate across private L2s
// (Fig. 12's metric). It returns 0 under NoL2.
func (h *Hierarchy) L2HitRate() float64 {
	var hits, accesses uint64
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l2[c] == nil {
			return 0
		}
		hits += h.l2[c].Stats().TotalHits()
		accesses += h.l2[c].Stats().TotalAccesses()
	}
	if accesses == 0 {
		return 0
	}
	return float64(hits) / float64(accesses)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
