package cache

import (
	"fmt"

	"droplet/internal/mem"
	"droplet/internal/names"
)

// Kind selects a replacement policy. The zero value is LRU, so existing
// configurations keep today's behavior without modification.
//
// The policy seam is deliberately a concrete enum dispatched by small
// switches inside Cache's methods rather than an interface or a type
// parameter: Go devirtualizes neither (interface methods are indirect
// calls; type-parameter methods compile to dictionary-indirect calls even
// with one instantiation per shape), and either would put an indirect
// call on the demand hot path. A kind switch compiles to direct calls
// behind one perfectly-predicted compare, LRU needs no hook at all (its
// victim is the tail of the recency list every kind keeps), and every
// policy's state lives in preallocated flat arrays owned by the Cache —
// see DESIGN.md "Replacement policies".
type Kind uint8

const (
	// KindLRU is true least-recently-used: the victim is the tail of the
	// set's recency list (the historical policy and the default).
	KindLRU Kind = iota
	// KindRandom evicts a uniformly random valid way, drawn from a
	// per-cache splitmix64 stream seeded by Config.Seed — deterministic
	// for a fixed seed, no global rand.
	KindRandom
	// KindSRRIP is static RRIP (Jaleel et al.): 2-bit re-reference
	// prediction values, demand inserts at "long" (max-1), hits promote
	// to 0, victims are ways at max RRPV (aging all ways until one is).
	KindSRRIP
	// KindBRRIP is bimodal RRIP: like SRRIP but inserts at "distant"
	// (max) except for 1-in-32 inserts at "long", protecting the cache
	// from thrashing scans.
	KindBRRIP
	// KindDRRIP set-duels SRRIP against BRRIP: 1-in-32 sets are leaders
	// for each policy, a saturating counter tracks which leader misses
	// less, and follower sets adopt the winner.
	KindDRRIP
	// KindSHiP is signature-based hit prediction (Wu et al.): each line
	// carries a 6-bit signature of its address region and data type; a
	// saturating counter table learns whether lines with that signature
	// are re-referenced, steering inserts to "long" or "distant".
	KindSHiP

	numKinds
)

// String returns the parseable policy name.
func (k Kind) String() string {
	switch k {
	case KindLRU:
		return "lru"
	case KindRandom:
		return "random"
	case KindSRRIP:
		return "srrip"
	case KindBRRIP:
		return "brrip"
	case KindDRRIP:
		return "drrip"
	case KindSHiP:
		return "ship"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AllKinds lists every replacement policy in canonical (parse-name) order.
func AllKinds() []Kind {
	return []Kind{KindLRU, KindRandom, KindSRRIP, KindBRRIP, KindDRRIP, KindSHiP}
}

// ParseReplacement maps a policy name to its Kind. The error lists the
// valid names.
func ParseReplacement(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, names.Unknown("cache", "replacement policy", s, names.Of(AllKinds()))
}

// RRIP parameters (2-bit RRPV per way).
const (
	rrpvLong    = 2 // insert value predicting a "long" re-reference interval
	rrpvDistant = 3 // max RRPV: insert value predicting "distant", and the eviction threshold
)

// BRRIP inserts at rrpvLong once per bipInterval demand fills (ε = 1/32).
const bipInterval = 32

// DRRIP set-dueling: within each 32-set constellation, one set leads for
// SRRIP and one for BRRIP; a saturating selector counts leader misses
// (psel > 0 means SRRIP leaders missed more, so followers use BRRIP).
// Geometries smaller than 32 sets degrade gracefully: absent leader sets
// simply never vote.
const (
	duelMask    = 31
	leaderSRRIP = 0
	leaderBRRIP = 16
	pselMax     = 511
	pselMin     = -512
)

// SHiP parameters: 64-entry signature history counter table of 3-bit
// saturating counters; per-line signatures pack the 6-bit signature with
// an outcome bit recording whether the line was re-referenced.
const (
	shctSize   = 64
	shctMax    = 7
	sigMask    = shctSize - 1
	sigOutcome = 0x80
)

// shipSignature hashes a line's 64-byte-region address and data type to a
// 6-bit SHCT index. The trace has no PCs, so the region+type pair plays
// the role of SHiP-mem's signature: graph structure/property/intermediate
// streams land in distinct counter groups.
//
//droplet:addr la line
func shipSignature(la uint64, dtype mem.DataType) uint8 {
	h := (la>>4 ^ uint64(dtype)<<58) * 0x9E3779B97F4A7C15
	return uint8(h>>58) & sigMask
}

// SaltSeed derives an independent deterministic seed for one cache
// instance from a base seed and an instance salt (level/core id), so
// sibling Random caches do not draw identical victim streams.
func SaltSeed(seed, salt uint64) uint64 {
	z := seed ^ (salt * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// rnext advances the cache's splitmix64 stream (KindRandom victims).
func (c *Cache) rnext() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// touchWay applies a non-LRU policy's demand-hit promotion to the line at
// flat way index idx. (LRU needs only the recency-list move, which toHead
// makes for every kind.)
func (c *Cache) touchWay(idx int) {
	switch c.kind {
	case KindRandom:
		// Random keeps no recency state.
	case KindSRRIP, KindBRRIP, KindDRRIP:
		c.rrpv[idx] = 0
	case KindSHiP:
		c.rrpv[idx] = 0
		s := c.sigs[idx]
		c.sigs[idx] = s | sigOutcome
		if t := &c.shct[s&sigMask]; *t < shctMax {
			*t++
		}
	}
}

// promoteWay applies an RRIP-family policy's Promote (prefetch-engine
// touch): recency is refreshed but predictors are not trained — a
// prefetcher reading a line is not evidence of demand reuse. Kinds
// without RRPVs have nothing to do here.
func (c *Cache) promoteWay(idx int) {
	if c.rrpv != nil {
		c.rrpv[idx] = 0
	}
}

// victimWay chooses a non-LRU victim in the set at base and returns its
// flat way index: the last invalid way while the set has one, else the
// policy's choice by way index. RRIP-family aging mutates the set's RRPVs,
// so callers invoke it exactly once per fill.
func (c *Cache) victimWay(base int) int {
	tags := c.tags[base : base+c.assoc]
	inv := -1
	for i, t := range tags {
		if t == noTag {
			inv = i // last invalid way wins
		}
	}
	if inv >= 0 {
		return base + inv
	}
	if c.kind == KindRandom {
		return base + int(c.rnext()%uint64(c.assoc))
	}
	// RRIP family (SRRIP/BRRIP/DRRIP/SHiP): evict the first way already
	// predicted "distant"; if none, age every way and rescan. RRPVs are
	// strictly below rrpvDistant when a round finds no victim, so at most
	// rrpvDistant rounds run.
	rrpv := c.rrpv[base : base+c.assoc][:len(tags)] // bounds-check hint
	for {
		for i, r := range rrpv {
			if r >= rrpvDistant {
				return base + i
			}
		}
		for i := range rrpv {
			rrpv[i]++
		}
	}
}

// bimodalRRPV returns BRRIP's insert value for a demand fill: "distant"
// except every bipInterval-th insert, which gets "long". The counter is
// cache-global, as in the reference implementation.
func (c *Cache) bimodalRRPV() uint8 {
	c.bip++
	if c.bip&(bipInterval-1) == 0 {
		return rrpvLong
	}
	return rrpvDistant
}

// insertWay applies a non-LRU policy's insert decision for the line just
// installed at idx (set index si, line address la). Prefetch fills always
// insert "distant": an untouched prefetch should be the first casualty.
//
//droplet:addr si set
//droplet:addr la line
func (c *Cache) insertWay(idx int, si, la uint64, dtype mem.DataType, prefetch bool) {
	switch c.kind {
	case KindRandom:
		// Random keeps no insert state.
	case KindSRRIP:
		if prefetch {
			c.rrpv[idx] = rrpvDistant
		} else {
			c.rrpv[idx] = rrpvLong
		}
	case KindBRRIP:
		if prefetch {
			c.rrpv[idx] = rrpvDistant
		} else {
			c.rrpv[idx] = c.bimodalRRPV()
		}
	case KindDRRIP:
		var useBRRIP bool
		switch si & duelMask {
		case leaderSRRIP:
			useBRRIP = false
			if !prefetch && c.psel < pselMax {
				c.psel++ // a miss in an SRRIP leader is a vote for BRRIP
			}
		case leaderBRRIP:
			useBRRIP = true
			if !prefetch && c.psel > pselMin {
				c.psel--
			}
		default:
			useBRRIP = c.psel > 0
		}
		switch {
		case prefetch:
			c.rrpv[idx] = rrpvDistant
		case useBRRIP:
			c.rrpv[idx] = c.bimodalRRPV()
		default:
			c.rrpv[idx] = rrpvLong
		}
	case KindSHiP:
		sig := shipSignature(la, dtype)
		c.sigs[idx] = sig // outcome bit clear: not yet re-referenced
		if prefetch || c.shct[sig] == 0 {
			c.rrpv[idx] = rrpvDistant
		} else {
			c.rrpv[idx] = rrpvLong
		}
	}
}

// evictTrain records a capacity eviction for SHiP: a line dying without
// the outcome bit (never re-referenced after insert) decays its
// signature's counter. Back-invalidations (Invalidate) deliberately do
// not train — an inclusion victim says nothing about the line's own
// reuse.
func (c *Cache) evictTrain(idx int) {
	s := c.sigs[idx]
	if s&sigOutcome == 0 {
		if t := &c.shct[s&sigMask]; *t > 0 {
			*t--
		}
	}
}
