// Package cache implements the set-associative, write-back caches of
// the simulated memory hierarchy (Table I: private L1D and L2, shared
// inclusive L3), with per-data-type statistics and support for in-flight
// fills so prefetch timeliness can be modeled. Replacement is pluggable
// at configuration time (LRU by default; see Kind) with every policy's
// bookkeeping kept off the heap and behind direct calls.
package cache

import (
	"fmt"
	"math/bits"

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
	if c.Assoc > maxAssoc {
		return fmt.Errorf("cache %s: assoc %d above %d, the most ways a recency list links", c.Name, c.Assoc, maxAssoc)
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

// maxAssoc is the largest associativity: a set's recency list links its
// ways by uint16 index.
const maxAssoc = 1 << 16

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

// link places one way in its set's recency list: a set's ways form a
// circular doubly linked list of set-relative way indices, most recently
// used first, so the way before the head is the tail.
type link struct{ prev, next uint16 }

// setHead names a set's most recently used way and keeps a copy of that
// way's tag beside it, so a probe that hits the head compares one loaded
// word. Every change of a set's head or of its head way's tag rewrites
// both fields.
type setHead struct {
	tag uint64 //droplet:addr line
	way uint16
}

// fpLow and fpHigh are the per-byte constants of the SWAR zero-byte test
// that compares a wanted fingerprint with eight ways' at once.
const (
	fpLow  = 0x0101010101010101
	fpHigh = 0x8080808080808080
)

// Cache is one set-associative cache. Addresses passed in are line-aligned
// automatically.
//
// Line metadata is stored struct-of-arrays: a probe reads the set's head
// way and fingerprint words and the tags of candidate ways only, and LRU
// victim selection follows one link, so a probe touches a couple of host
// cache lines per set; the cold fields (readyAt, data type, status flags)
// are loaded only for the one way that matched.
type Cache struct {
	cfg      Config
	setMask  uint64 //droplet:addr setmask
	setShift uint   // log2 of the set count: the tag bits above the set index start here
	assoc    int
	fpWords  int // fingerprint words per set, (assoc+7)/8
	// tags holds each way's line address, noTag when the way is invalid.
	// A tag deliberately keeps the FULL line address (set bits included)
	// rather than shifting them out: Fill and Invalidate reconstruct a
	// victim's address as tag<<LineShift, which only works because nothing
	// was discarded. Do not "optimize" the tag down to lineaddr>>setBits
	// without also storing the set index in each victim. The //droplet:addr
	// annotation makes that invariant machine-checked: addrdomain flags any
	// store of a non-line-domain value into the array.
	tags []uint64 //droplet:addr line
	meta []meta   // cold per-line fields, one 16-byte record per way
	// links (per way) and heads (per set) keep each set's ways in recency
	// order. A hit, a fill and a Promote move the way to the head; an
	// Invalidate moves it to the tail. Invalid ways therefore always sit
	// at the tail end, and the tail is LRU's victim: an invalid way while
	// the set has one, else the least recently used line. Every kind keeps
	// the list, because the head is also the way every probe tries first:
	// graph workloads hit the same hot line repeatedly (offsets, frontier
	// words). Each head carries its way's tag (see setHead).
	links []link
	heads []setHead
	// fps holds one fingerprint byte per way (see fingerprint), eight to a
	// word, fpWords words per set. A valid way's byte is always its tag's
	// fingerprint, so a probe whose byte matches no way has proved the
	// line absent without comparing a tag.
	fps []uint64
	// absent is the line the last Access, Lookup or Promote missed on, or
	// noTag once a line has been installed since. Only a Fill installs a
	// line, so the line is still absent when the Fill that follows the
	// miss runs, and that Fill skips its merge probe. Invalidate, MarkDirty
	// and MarkUpper leave it alone: their misses rarely precede a Fill of
	// the same line, and overwriting the memo would cost the Fill of the
	// line a demand just missed on.
	absent uint64 //droplet:addr line

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
	// Way w follows way w-1 round each set, so head 0 puts the last way at
	// the tail and a fresh set fills its ways from the last to the first.
	links := make([]link, lines)
	for i := range links {
		w := i % cfg.Assoc
		links[i] = link{prev: uint16((w + cfg.Assoc - 1) % cfg.Assoc), next: uint16((w + 1) % cfg.Assoc)}
	}
	fpWords := (cfg.Assoc + 7) / 8
	heads := make([]setHead, numSets)
	for i := range heads {
		heads[i].tag = noTag
	}
	c := &Cache{
		cfg:      cfg,
		setMask:  uint64(numSets - 1),
		setShift: uint(bits.TrailingZeros(uint(numSets))),
		assoc:    cfg.Assoc,
		fpWords:  fpWords,
		tags:     tags,
		meta:     make([]meta, lines),
		links:    links,
		heads:    heads,
		fps:      make([]uint64, numSets*fpWords),
		absent:   noTag,
		kind:     cfg.Policy,
		rng:      cfg.Seed,
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

// Lookup probes for addr without updating stats or recency. It returns
// the line's readiness time when present; a miss records the line in
// absent, so a Fill of it that follows skips its merge probe.
//
//droplet:addr addr byte
func (c *Cache) Lookup(addr mem.Addr) (readyAt int64, ok bool) {
	la := uint64(addr >> mem.LineShift)
	idx, ok := c.find(la)
	if !ok {
		c.absent = la
		return 0, false
	}
	return c.meta[idx].ready, true
}

// fingerprint hashes the tag bits of line la above its set index to the
// byte, returned in the low 8 bits, that a probe compares.
//
//droplet:hotpath
//droplet:addr la line
func (c *Cache) fingerprint(la uint64) uint64 {
	return (la >> c.setShift) * 0x9E3779B97F4A7C15 >> 56
}

// find returns the flat way index holding line la and changes no state;
// idx means nothing when ok is false. It compares la with the tag kept
// beside the set's head, then compares la's fingerprint with every way's,
// a word at a time, and the tag of each way whose byte matches. The
// zero-byte test flags every matching byte (and, rarely, a byte just
// above one), so the scan has no false negatives; a set holds a line in
// at most one way (Fill merges a refill of a resident line), so the first
// tag that matches is the line.
//
//droplet:hotpath
//droplet:addr la line
func (c *Cache) find(la uint64) (idx int, ok bool) {
	si := la & c.setMask
	base := int(si) * c.assoc
	if h := c.heads[si]; h.tag == la {
		return base + int(h.way), true
	}
	tags := c.tags[base : base+c.assoc]
	want := c.fingerprint(la) * fpLow
	fw := int(si) * c.fpWords
	for i, word := range c.fps[fw : fw+c.fpWords] {
		x := word ^ want
		for m := (x - fpLow) &^ x & fpHigh; m != 0; m &= m - 1 {
			w := i*8 + bits.TrailingZeros64(m)>>3
			if w >= len(tags) {
				break // a padding byte of the set's last word
			}
			if tags[w] == la {
				return base + w, true
			}
		}
	}
	return 0, false
}

// toHead makes way w of set si the set's most recently used. It is split
// from relink so that the common case, a hit on the head way, inlines
// into its callers as one compare.
//
//droplet:hotpath
//droplet:addr si set
func (c *Cache) toHead(si uint64, w int) {
	if uint16(w) != c.heads[si].way {
		c.relink(si, uint16(w))
	}
}

// relink moves way w of set si, which is not the head, to the head. The
// tail gets there by rotating the circular list; any other way is
// unlinked and spliced in between the tail and the head.
//
//droplet:hotpath
//droplet:addr si set
func (c *Cache) relink(si uint64, w uint16) {
	base := int(si) * c.assoc
	l := c.links[base : base+c.assoc]
	h := c.heads[si].way
	if t := l[h].prev; w != t {
		p, n := l[w].prev, l[w].next
		l[p].next, l[n].prev = n, p
		l[w] = link{prev: t, next: h}
		l[t].next, l[h].prev = w, w
	}
	c.heads[si] = setHead{tag: c.tags[base+int(w)], way: w}
}

// Access performs a demand access at time now. On a hit it returns
// ok=true and readyAt, the time the data can be forwarded (>= now; later
// than now only when the line is still in flight). Recency and all stats
// are updated; a write marks the line dirty.
//
//droplet:hotpath
//droplet:addr addr byte
func (c *Cache) Access(addr mem.Addr, dtype mem.DataType, write bool, now int64) (readyAt int64, ok bool) {
	la := uint64(addr >> mem.LineShift)
	c.stats.DemandAccesses[dtype]++
	idx, ok := c.find(la)
	if !ok {
		c.stats.DemandMisses[dtype]++
		c.absent = la
		return 0, false
	}
	m := &c.meta[idx]
	c.stats.DemandHits[dtype]++
	if m.flags&flagPrefetched != 0 {
		c.stats.PrefetchHits[m.dtype]++
		m.flags &^= flagPrefetched
	}
	if write {
		m.flags |= flagDirty
	}
	if c.kind != KindLRU {
		c.touchWay(idx)
	}
	si := la & c.setMask
	c.toHead(si, idx-int(si)*c.assoc)
	return max(m.ready, now), true
}

// Fill installs addr, ready at readyAt, evicting the policy's victim if
// the set is full (LRU: the tail of the set's recency list). prefetch
// marks prefetcher-installed lines for accuracy accounting. The returned
// victim is valid when a line was displaced; inclusive hierarchies must
// back-invalidate it upstream and write it back downstream when dirty.
//
//droplet:hotpath
//droplet:addr addr byte
func (c *Cache) Fill(addr mem.Addr, dtype mem.DataType, readyAt int64, prefetch bool) Victim {
	la := uint64(addr >> mem.LineShift)
	c.stats.Fills++
	if prefetch {
		c.stats.PrefetchFills++
	}
	// A refill of a resident line merges in place; a line the last Access,
	// Lookup or Promote missed on is known to be absent.
	if la != c.absent {
		if idx, ok := c.find(la); ok {
			c.merge(idx, readyAt, prefetch)
			return Victim{}
		}
	}
	c.absent = noTag // the install below makes a line present
	si := la & c.setMask
	base := int(si) * c.assoc
	var idx int
	if c.kind == KindLRU {
		idx = base + int(c.links[base+int(c.heads[si].way)].prev) // the tail
	} else {
		idx = c.victimWay(base)
	}
	m := &c.meta[idx]
	var v Victim
	if t := c.tags[idx]; t != noTag {
		v = Victim{
			Addr:       mem.Addr(t) << mem.LineShift, // tag holds the full line address
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
			c.evictTrain(idx)
		}
	}
	c.tags[idx] = la
	// Way w's fingerprint is byte w%8 of its set's word w/8.
	w := idx - base
	fp := &c.fps[int(si)*c.fpWords+w>>3]
	sh := uint(w&7) * 8
	*fp = *fp&^(0xff<<sh) | c.fingerprint(la)<<sh
	var f uint8
	if prefetch {
		f = flagPrefetched
	}
	*m = meta{ready: readyAt, dtype: dtype, flags: f}
	if c.kind != KindLRU {
		c.insertWay(idx, si, la, dtype, prefetch)
	}
	c.toHead(si, w)
	c.heads[si].tag = la // the victim may have been the head way already
	return v
}

// merge folds a refill into the resident line at flat way index idx (a
// prefetch racing a demand, say): the earlier readiness wins and a demand
// refill clears the prefetched mark. Recency is left alone.
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
// returning the removed line's state. The freed way moves to the tail of
// its set's recency list, so the next fill of the set reuses it.
//
//droplet:addr addr byte
func (c *Cache) Invalidate(addr mem.Addr) Victim {
	la := uint64(addr >> mem.LineShift)
	idx, ok := c.find(la)
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
	// Splice the way in at the head, then step the head past it.
	si := la & c.setMask
	base := int(si) * c.assoc
	c.toHead(si, idx-base)
	next := c.links[idx].next
	c.heads[si] = setHead{tag: c.tags[base+int(next)], way: next}
	return v
}

// MarkUpper ORs bit into a resident line's upper-residency mask (see
// meta.upper); absent lines are ignored. Callers invoke it right after
// touching the line (Access hit or Fill), so the probe of the set's head
// way almost always finds it.
//
//droplet:addr addr byte
func (c *Cache) MarkUpper(addr mem.Addr, bit uint16) {
	if idx, ok := c.find(uint64(addr >> mem.LineShift)); ok {
		c.meta[idx].upper |= bit
	}
}

// Promote makes a resident line its set's most recently used without
// touching demand stats (used when a prefetch engine reads the line, e.g.
// the LLC-to-L2 copy). It returns the line's readiness time and whether
// the line was present; an absent line is left absent, and recorded in
// absent, so the prefetch fill that follows skips its merge probe.
//
//droplet:addr addr byte
func (c *Cache) Promote(addr mem.Addr) (readyAt int64, ok bool) {
	la := uint64(addr >> mem.LineShift)
	idx, ok := c.find(la)
	if !ok {
		c.absent = la
		return 0, false
	}
	c.promoteWay(idx)
	si := la & c.setMask
	c.toHead(si, idx-int(si)*c.assoc)
	return c.meta[idx].ready, true
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
