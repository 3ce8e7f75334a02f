// Package cache implements the set-associative, write-back caches of
// the simulated memory hierarchy (Table I: private L1D and L2, shared
// inclusive L3), with per-data-type statistics and support for in-flight
// fills so prefetch timeliness can be modeled. Replacement is pluggable
// at configuration time (LRU by default; see Kind) with every policy's
// bookkeeping kept off the heap and behind direct calls.
package cache

import (
	"fmt"

	"droplet/internal/mem"
)

// Config describes one cache.
type Config struct {
	Name string
	// SizeBytes and Assoc define the geometry; both must be powers-of-two
	// multiples of the 64-byte line.
	SizeBytes int
	Assoc     int
	// LatencyTag and LatencyData are the access times in cycles (Table I
	// gives them separately; a miss pays the tag latency, a hit the data
	// latency).
	LatencyTag  int
	LatencyData int
	// Policy selects the replacement policy; the zero value is LRU.
	Policy Kind
	// Seed seeds the cache's private splitmix64 stream (KindRandom).
	// Hierarchies salt it per cache instance via SaltSeed so sibling
	// caches draw independent victim streams.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes%mem.LineSize != 0 {
		return fmt.Errorf("cache %s: size %d not a positive multiple of %d", c.Name, c.SizeBytes, mem.LineSize)
	}
	lines := c.SizeBytes / mem.LineSize
	if c.Assoc <= 0 || lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: assoc %d does not divide %d lines", c.Name, c.Assoc, lines)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.Policy >= numKinds {
		return fmt.Errorf("cache %s: unknown replacement policy %d", c.Name, c.Policy)
	}
	return nil
}

// Per-line state lives in flat way-indexed parallel arrays (see Cache);
// flags holds the two line status bits.
const (
	flagDirty      = 1 << 0
	flagPrefetched = 1 << 1 // installed by a prefetcher and not yet demanded
)

// meta packs the per-line fields the probe scans never read, so a hit or
// fill loads them with a single cache-line touch.
type meta struct {
	ready int64 // fill completion time; accesses before this wait
	dtype mem.DataType
	flags uint8 // flagDirty | flagPrefetched
	// upper is a per-core residency hint maintained by an inclusive
	// owner (the LLC): bit c set means core c's private caches may hold
	// a copy installed while this line was resident. It is set via
	// MarkUpper, cleared wholesale when a fill replaces the line, and
	// deliberately never cleared on private evictions — a stale set bit
	// only costs a wasted back-invalidation probe, while a clear bit
	// proves the core cannot hold the line.
	upper uint16
}

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr       mem.Addr //droplet:addr byte
	Dirty      bool
	Valid      bool
	Prefetched bool // evicted before any demand touched it (a wasted prefetch)
	DType      mem.DataType
	Upper      uint16 // the evicted line's upper-residency mask (see meta.upper)
}

// Stats aggregates per-cache counters, split by data type.
type Stats struct {
	DemandAccesses [mem.NumDataTypes]uint64
	DemandHits     [mem.NumDataTypes]uint64
	DemandMisses   [mem.NumDataTypes]uint64
	// PrefetchHits counts demand hits on lines a prefetcher installed
	// (the numerator of prefetch accuracy).
	PrefetchHits [mem.NumDataTypes]uint64
	// PrefetchEvictedUnused counts prefetched lines evicted untouched.
	PrefetchEvictedUnused [mem.NumDataTypes]uint64
	Fills                 uint64
	PrefetchFills         uint64
	Writebacks            uint64
}

// TotalAccesses returns all demand accesses.
func (s *Stats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.DemandAccesses {
		t += v
	}
	return t
}

// TotalHits returns all demand hits.
func (s *Stats) TotalHits() uint64 {
	var t uint64
	for _, v := range s.DemandHits {
		t += v
	}
	return t
}

// TotalMisses returns all demand misses.
func (s *Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.DemandMisses {
		t += v
	}
	return t
}

// HitRate returns demand hits / demand accesses.
func (s *Stats) HitRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalHits()) / float64(a)
}

// noTag marks an invalid way in the compact tag array. Real tags are line
// addresses (byte address >> 6), which never reach 2^64-1. The sentinel
// lives in the tag arrays, so it shares their line domain.
const noTag = ^uint64(0) //droplet:addr line

// Cache is one set-associative cache. Addresses passed in are line-aligned
// automatically.
//
// Line metadata is stored struct-of-arrays: the hot probes — hit checks
// and victim selection — scan only the compact tags/lrus arrays, touching
// a couple of host cache lines per set instead of per-way metadata
// structs, and the cold fields (readyAt, data type, status flags) are
// loaded only for the one way that matched.
type Cache struct {
	cfg     Config
	setMask uint64 //droplet:addr setmask
	assoc   int
	// tags holds each way's line address, noTag when the way is invalid.
	// A tag deliberately keeps the FULL line address (set bits included)
	// rather than shifting them out: Fill and Invalidate reconstruct a
	// victim's address as tag<<LineShift, which only works because nothing
	// was discarded. Do not "optimize" the tag down to lineaddr>>setBits
	// without also storing the set index in each victim. The //droplet:addr
	// annotation makes that invariant machine-checked: addrdomain flags any
	// store of a non-line-domain value into the array.
	tags []uint64 //droplet:addr line
	lrus []uint64 // LRU stamp per way; valid ways always have stamp >= 1
	meta []meta   // cold per-line fields, one 16-byte record per way
	// mru holds, per set, the way index of the most recently touched
	// line. Graph workloads hit the same hot line repeatedly (offsets,
	// frontier words), so probing the hinted way first short-circuits the
	// associative scan on the common path. Purely a speedup: hit/miss
	// outcomes, stats, and LRU state are identical with or without it.
	mru  []uint16
	tick uint64
	// missLA/missIdx/missOldest memoize the victim selection computed by
	// the most recent Access miss: the demand protocol always follows a
	// miss with a Fill of the same line in the same event, so Fill can
	// skip its merge+victim scan and reuse the miss's answer. The memo is
	// valid only while the set provably hasn't changed: every mutation
	// that could alter victim choice or create a merge candidate — a
	// fill, a hit (LRU bump), an invalidation, a promotion — resets
	// missLA to noTag, forcing the next Fill back to the full scan.
	// The memo is an LRU-only optimization: non-LRU kinds never set it
	// (their victim selection has aging side effects that must run exactly
	// once, in Fill), so missLA stays noTag and Fill always rescans.
	missLA     uint64 //droplet:addr line
	missIdx    int    // flat way index of the chosen victim
	missOldest uint64 // the victim's LRU stamp; 0 means it was an invalid way

	// Replacement-policy state (see policy.go). kind routes the per-access
	// policy hooks through small switches of direct calls; the state
	// arrays are preallocated per kind in New, so no policy allocates on
	// the demand path.
	kind  Kind
	rng   uint64          // splitmix64 state (KindRandom)
	rrpv  []uint8         // per-way 2-bit re-reference prediction value (RRIP family, SHiP)
	sigs  []uint8         // per-way SHiP signature (low 6 bits) + outcome bit (0x80)
	shct  [shctSize]uint8 // SHiP signature history counters
	psel  int16           // DRRIP set-duel selector
	bip   uint8           // BRRIP bimodal insert counter
	stats Stats
}

// New builds a cache from cfg, panicking on invalid geometry (a
// configuration error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / mem.LineSize / cfg.Assoc
	lines := numSets * cfg.Assoc
	tags := make([]uint64, lines)
	for i := range tags {
		tags[i] = noTag
	}
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(numSets - 1),
		assoc:   cfg.Assoc,
		tags:    tags,
		lrus:    make([]uint64, lines),
		meta:    make([]meta, lines),
		mru:     make([]uint16, numSets),
		missLA:  noTag,
		kind:    cfg.Policy,
		rng:     cfg.Seed,
	}
	switch c.kind {
	case KindSRRIP, KindBRRIP, KindDRRIP:
		c.rrpv = make([]uint8, lines)
	case KindSHiP:
		c.rrpv = make([]uint8, lines)
		c.sigs = make([]uint8, lines)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Lookup probes for addr without updating stats or LRU. It returns the
// line's readiness time when present. Used by the coherence engine.
//
//droplet:addr addr byte
func (c *Cache) Lookup(addr mem.Addr) (readyAt int64, ok bool) {
	idx, ok := c.find(uint64(addr >> mem.LineShift))
	if !ok {
		return 0, false
	}
	return c.meta[idx].ready, true
}

// find returns the flat way index holding line la, probing its set's
// MRU-hinted way before scanning the set, and changes no state; idx means
// nothing when ok is false. A set holds a line in at most one way (Fill
// merges a refill of a resident line), so the hinted probe finds the way
// a plain scan would.
//
//droplet:hotpath
//droplet:addr la line
func (c *Cache) find(la uint64) (idx int, ok bool) {
	si := la & c.setMask
	base := int(si) * c.assoc
	tags := c.tags[base : base+c.assoc]
	w := int(c.mru[si])
	if tags[w] != la {
		w = -1
		for i, t := range tags {
			if t == la {
				w = i
				break
			}
		}
	}
	return base + w, w >= 0
}

// Access performs a demand access at time now. On a hit it returns
// ok=true and readyAt, the time the data can be forwarded (>= now; later
// than now only when the line is still in flight). LRU and all stats are
// updated; a write marks the line dirty.
//
//droplet:hotpath
//droplet:addr addr byte
func (c *Cache) Access(addr mem.Addr, dtype mem.DataType, write bool, now int64) (readyAt int64, ok bool) {
	la := addr >> mem.LineShift
	si := la & c.setMask
	base := int(si) * c.assoc
	tags := c.tags[base : base+c.assoc]
	c.stats.DemandAccesses[dtype]++
	// Probe the MRU-hinted way first; fall back to the associative scan.
	if w := int(c.mru[si]); tags[w] == uint64(la) {
		return c.hit(base+w, dtype, write, now), true
	}
	if c.kind != KindLRU {
		// No victim memo: non-LRU victim selection has aging side
		// effects, so it runs exactly once, in Fill.
		if idx, ok := c.find(uint64(la)); ok {
			c.mru[si] = uint16(idx - base)
			return c.hit(idx, dtype, write, now), true
		}
		c.stats.DemandMisses[dtype]++
		return 0, false
	}
	// The miss scan doubles as the victim selection for the Fill that
	// follows (same tie-breaks as Fill's own scan: last invalid way wins,
	// else the first way with the minimal LRU stamp).
	lrus := c.lrus[base : base+c.assoc][:len(tags)] // bounds-check hint
	victimIdx := -1
	var oldest uint64 = ^uint64(0)
	for i, t := range tags {
		if t == uint64(la) {
			c.mru[si] = uint16(i)
			return c.hit(base+i, dtype, write, now), true
		}
		if t == noTag {
			victimIdx = i
			oldest = 0
			continue
		}
		if lrus[i] < oldest {
			oldest = lrus[i]
			victimIdx = i
		}
	}
	c.stats.DemandMisses[dtype]++
	c.missLA = uint64(la)
	c.missIdx = base + victimIdx
	c.missOldest = oldest
	return 0, false
}

// hit applies the stats, recency, and dirty-bit effects of a demand hit
// on the line at flat way index idx and returns the forwarding time.
func (c *Cache) hit(idx int, dtype mem.DataType, write bool, now int64) int64 {
	m := &c.meta[idx]
	c.missLA = noTag // the recency bump below could change a memoized victim
	c.stats.DemandHits[dtype]++
	if m.flags&flagPrefetched != 0 {
		c.stats.PrefetchHits[m.dtype]++
		m.flags &^= flagPrefetched
	}
	if write {
		m.flags |= flagDirty
	}
	if c.kind == KindLRU {
		c.tick++
		c.lrus[idx] = c.tick
	} else {
		c.touchWay(idx)
	}
	r := m.ready
	if r < now {
		r = now
	}
	return r
}

// Fill installs addr, ready at readyAt, evicting the LRU way if needed.
// prefetch marks prefetcher-installed lines for accuracy accounting.
// The returned victim is valid when a line was displaced; inclusive
// hierarchies must back-invalidate it upstream and write it back
// downstream when dirty.
//
//droplet:hotpath
//droplet:addr addr byte
func (c *Cache) Fill(addr mem.Addr, dtype mem.DataType, readyAt int64, prefetch bool) Victim {
	la := addr >> mem.LineShift
	si := la & c.setMask
	base := int(si) * c.assoc
	c.stats.Fills++
	if prefetch {
		c.stats.PrefetchFills++
	}
	var victimIdx int
	var oldest uint64
	if uint64(la) == c.missLA {
		// The Access miss for this line already chose the victim and the
		// set provably hasn't changed since (any mutation resets missLA),
		// so the merge check (the line is still absent) and the victim
		// scan are both settled. (LRU only: other kinds never set the
		// memo.)
		victimIdx = c.missIdx
		oldest = c.missOldest
	} else if c.kind != KindLRU {
		if idx, ok := c.find(uint64(la)); ok {
			c.merge(idx, readyAt, prefetch)
			return Victim{}
		}
		victimIdx, oldest = c.victimWay(base)
	} else {
		tags := c.tags[base : base+c.assoc]
		lrus := c.lrus[base : base+c.assoc][:len(tags)] // bounds-check hint
		victimIdx = -1
		oldest = ^uint64(0)
		for i, t := range tags {
			if t == uint64(la) {
				c.merge(base+i, readyAt, prefetch)
				return Victim{}
			}
			if t == noTag {
				victimIdx = i
				oldest = 0
				continue
			}
			if lrus[i] < oldest {
				oldest = lrus[i]
				victimIdx = i
			}
		}
		victimIdx += base
	}
	c.missLA = noTag // the install below changes the set
	m := &c.meta[victimIdx]
	var v Victim
	if oldest != 0 { // the chosen way held a valid line (valid stamps are >= 1)
		v = Victim{
			Addr:       mem.Addr(c.tags[victimIdx]) << mem.LineShift, // tag holds the full line address
			Dirty:      m.flags&flagDirty != 0,
			Valid:      true,
			Prefetched: m.flags&flagPrefetched != 0,
			DType:      m.dtype,
			Upper:      m.upper,
		}
		if v.Dirty {
			c.stats.Writebacks++
		}
		if v.Prefetched {
			c.stats.PrefetchEvictedUnused[v.DType]++
		}
		if c.kind == KindSHiP {
			c.evictTrain(victimIdx)
		}
	}
	// The tick/lrus stamp is maintained for every kind: non-LRU policies
	// never read it, but the "valid stamps are >= 1" invariant backs the
	// oldest != 0 victim-validity convention above.
	c.tick++
	c.tags[victimIdx] = uint64(la)
	c.lrus[victimIdx] = c.tick
	var f uint8
	if prefetch {
		f = flagPrefetched
	}
	*m = meta{ready: readyAt, dtype: dtype, flags: f}
	if c.kind != KindLRU {
		c.insertWay(victimIdx, si, uint64(la), dtype, prefetch)
	}
	c.mru[si] = uint16(victimIdx - base)
	return v
}

// merge folds a refill into the resident line at flat way index idx (a
// prefetch racing a demand, say): the earlier readiness wins and a demand
// refill clears the prefetched mark. No memo reset — readiness and flags
// play no part in victim choice.
func (c *Cache) merge(idx int, readyAt int64, prefetch bool) {
	m := &c.meta[idx]
	if readyAt < m.ready {
		m.ready = readyAt
	}
	if !prefetch {
		m.flags &^= flagPrefetched
	}
}

// Invalidate removes addr if present (inclusive back-invalidation),
// returning the removed line's state.
//
//droplet:addr addr byte
func (c *Cache) Invalidate(addr mem.Addr) Victim {
	idx, ok := c.find(uint64(addr >> mem.LineShift))
	if !ok {
		return Victim{}
	}
	m := &c.meta[idx]
	v := Victim{
		Addr:       mem.Addr(c.tags[idx]) << mem.LineShift,
		Dirty:      m.flags&flagDirty != 0,
		Valid:      true,
		Prefetched: m.flags&flagPrefetched != 0,
		DType:      m.dtype,
	}
	if v.Prefetched {
		c.stats.PrefetchEvictedUnused[v.DType]++
	}
	c.tags[idx] = noTag
	c.missLA = noTag // the freed way could change a memoized victim
	return v
}

// MarkUpper ORs bit into a resident line's upper-residency mask (see
// meta.upper); absent lines are ignored. Callers invoke it right after
// touching the line (Access hit or Fill), so the MRU-hinted probe almost
// always resolves without the associative scan.
//
//droplet:addr addr byte
func (c *Cache) MarkUpper(addr mem.Addr, bit uint16) {
	if idx, ok := c.find(uint64(addr >> mem.LineShift)); ok {
		c.meta[idx].upper |= bit
	}
}

// Promote bumps a resident line to MRU without touching demand stats
// (used when a prefetch engine reads the line, e.g. the LLC-to-L2 copy).
//
//droplet:addr addr byte
func (c *Cache) Promote(addr mem.Addr) {
	idx, ok := c.find(uint64(addr >> mem.LineShift))
	if !ok {
		return
	}
	if c.kind == KindLRU {
		c.tick++
		c.lrus[idx] = c.tick
	} else {
		c.promoteWay(idx)
	}
	c.missLA = noTag // the recency bump could change a memoized victim
}

// MarkDirty sets the dirty bit of a resident line (used when a writeback
// from an upper level lands in this cache).
//
//droplet:addr addr byte
func (c *Cache) MarkDirty(addr mem.Addr) {
	if idx, ok := c.find(uint64(addr >> mem.LineShift)); ok {
		c.meta[idx].flags |= flagDirty
	}
}

// ResidentLines returns the number of valid lines (testing hook).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, t := range c.tags {
		if t != noTag {
			n++
		}
	}
	return n
}
