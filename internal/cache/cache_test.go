package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"droplet/internal/mem"
)

func newTest(size, assoc int) *Cache {
	return New(Config{Name: "t", SizeBytes: size, Assoc: assoc, LatencyTag: 1, LatencyData: 4})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 1},
		{Name: "b", SizeBytes: 100, Assoc: 1},                      // not line multiple
		{Name: "c", SizeBytes: 4096, Assoc: 3},                     // assoc doesn't divide
		{Name: "d", SizeBytes: 12 * mem.LineSize, Assoc: 2},        // 6 sets, not pow2
		{Name: "e", SizeBytes: 64 * mem.LineSize, Assoc: 0},        // zero assoc
		{Name: "f", SizeBytes: -mem.LineSize * 64, Assoc: 4},       // negative
		{Name: "h", SizeBytes: mem.LineSize << 17, Assoc: 1 << 17}, // more ways than the recency links index
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	good := Config{Name: "g", SizeBytes: 32 * 1024, Assoc: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v: %v", good, err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := newTest(4096, 4)
	if _, ok := c.Access(0x1000, mem.Structure, false, 0); ok {
		t.Fatal("cold access should miss")
	}
	c.Fill(0x1000, mem.Structure, 10, false)
	r, ok := c.Access(0x1000, mem.Structure, false, 5)
	if !ok {
		t.Fatal("filled line should hit")
	}
	if r != 10 {
		t.Errorf("readyAt = %d, want 10 (in-flight fill)", r)
	}
	r, ok = c.Access(0x1000, mem.Structure, false, 50)
	if !ok || r != 50 {
		t.Errorf("settled hit readyAt = %d ok=%v, want 50 true", r, ok)
	}
	s := c.Stats()
	if s.DemandMisses[mem.Structure] != 1 || s.DemandHits[mem.Structure] != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameSetEviction(t *testing.T) {
	// 2-way, 2 sets: lines 0x0, 0x100, 0x200 with 128B set stride.
	c := newTest(4*mem.LineSize, 2)
	c.Fill(0x0000, mem.Property, 0, false)
	c.Fill(0x0080, mem.Property, 0, false) // same set (2 sets → stride 128)
	v := c.Fill(0x0100, mem.Property, 0, false)
	if !v.Valid || v.Addr != 0x0000 {
		t.Fatalf("victim = %+v, want eviction of 0x0", v)
	}
	if _, ok := c.Access(0x0000, mem.Property, false, 0); ok {
		t.Error("evicted line should miss")
	}
	if _, ok := c.Access(0x0080, mem.Property, false, 0); !ok {
		t.Error("resident line should hit")
	}
}

func TestLRUOrder(t *testing.T) {
	c := newTest(4*mem.LineSize, 2) // 2 sets
	c.Fill(0x0000, mem.Property, 0, false)
	c.Fill(0x0080, mem.Property, 0, false)
	// Touch 0x0000 so 0x0080 becomes LRU.
	c.Access(0x0000, mem.Property, false, 1)
	v := c.Fill(0x0100, mem.Property, 0, false)
	if v.Addr != 0x0080 {
		t.Errorf("victim = %#x, want LRU 0x80", v.Addr)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := newTest(2*mem.LineSize, 2) // 1 set, 2 ways
	c.Fill(0x0000, mem.Property, 0, false)
	c.Access(0x0000, mem.Property, true, 0) // write → dirty
	c.Fill(0x0040, mem.Property, 0, false)
	v := c.Fill(0x0080, mem.Property, 0, false)
	if !v.Dirty || v.Addr != 0x0000 {
		t.Errorf("victim = %+v, want dirty 0x0", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestPrefetchAccuracyAccounting(t *testing.T) {
	c := newTest(2*mem.LineSize, 2)
	c.Fill(0x0000, mem.Structure, 0, true)
	c.Fill(0x0040, mem.Structure, 0, true)
	// One prefetched line gets used...
	if _, ok := c.Access(0x0000, mem.Structure, false, 0); !ok {
		t.Fatal("prefetched line should hit")
	}
	// ...the other is evicted untouched.
	c.Fill(0x0080, mem.Structure, 0, false)
	s := c.Stats()
	if s.PrefetchHits[mem.Structure] != 1 {
		t.Errorf("PrefetchHits = %d, want 1", s.PrefetchHits[mem.Structure])
	}
	if s.PrefetchEvictedUnused[mem.Structure] != 1 {
		t.Errorf("PrefetchEvictedUnused = %d, want 1", s.PrefetchEvictedUnused[mem.Structure])
	}
	// A second access to the used line is a plain hit, not a prefetch hit.
	c.Access(0x0000, mem.Structure, false, 0)
	if s.PrefetchHits[mem.Structure] != 1 {
		t.Errorf("PrefetchHits counted twice")
	}
}

func TestFillMergesInFlight(t *testing.T) {
	c := newTest(2*mem.LineSize, 2)
	c.Fill(0x0000, mem.Property, 100, true)
	// Demand refill with earlier readiness wins; prefetched flag clears.
	c.Fill(0x0000, mem.Property, 50, false)
	r, ok := c.Access(0x0000, mem.Property, false, 0)
	if !ok || r != 50 {
		t.Errorf("readyAt = %d ok=%v, want 50 true", r, ok)
	}
	if c.Stats().PrefetchHits[mem.Property] != 0 {
		t.Error("merged demand fill should clear prefetched before any hit")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(2*mem.LineSize, 2)
	c.Fill(0x0000, mem.Property, 0, false)
	c.Access(0x0000, mem.Property, true, 0)
	v := c.Invalidate(0x0000)
	if !v.Valid || !v.Dirty {
		t.Errorf("invalidate victim = %+v", v)
	}
	if _, ok := c.Access(0x0000, mem.Property, false, 0); ok {
		t.Error("invalidated line should miss")
	}
	if v := c.Invalidate(0x4000); v.Valid {
		t.Error("invalidating absent line should return invalid victim")
	}
}

func TestLookupDoesNotDisturb(t *testing.T) {
	c := newTest(2*mem.LineSize, 2) // 1 set
	c.Fill(0x0000, mem.Property, 0, false)
	c.Fill(0x0040, mem.Property, 0, false)
	// 0x0000 is LRU; Lookup must not promote it.
	if _, ok := c.Lookup(0x0000); !ok {
		t.Fatal("Lookup should find resident line")
	}
	v := c.Fill(0x0080, mem.Property, 0, false)
	if v.Addr != 0x0000 {
		t.Errorf("victim = %#x; Lookup disturbed LRU", v.Addr)
	}
	accesses := c.Stats().TotalAccesses()
	if accesses != 0 {
		t.Errorf("Lookup counted as access: %d", accesses)
	}
}

func TestMarkDirty(t *testing.T) {
	c := newTest(2*mem.LineSize, 2)
	c.Fill(0x0000, mem.Property, 0, false)
	c.MarkDirty(0x0000)
	c.Fill(0x0040, mem.Property, 0, false)
	v := c.Fill(0x0080, mem.Property, 0, false)
	if !v.Dirty {
		t.Error("MarkDirty had no effect")
	}
	c.MarkDirty(0x9999_0000) // absent: no-op, no panic
}

func TestSubLineAddressesShareLine(t *testing.T) {
	c := newTest(4096, 4)
	c.Fill(0x1008, mem.Structure, 0, false)
	if _, ok := c.Access(0x1030, mem.Structure, false, 0); !ok {
		t.Error("same-line offset should hit")
	}
	if _, ok := c.Access(0x1040, mem.Structure, false, 0); ok {
		t.Error("next line should miss")
	}
}

// TestPropLRUMatchesReferenceModel cross-checks the cache against a naive
// per-set LRU list model under random sequences of every probe: Access,
// Lookup and Promote (a miss of each followed by a Fill of its line, as
// a demand or a prefetch fill follows one), Invalidate and MarkDirty. The
// geometries cover a fingerprint word with padding bytes (4 ways), one
// full word (8), sets of several words (16 and 32) and one set of 32
// ways (Fig. 4b's quadrupled L2). A deferred miss leaves its Fill until
// after the next op, so an Invalidate or Promote can land between a miss
// and its Fill, and a second miss on the line makes the deferred Fill
// merge. After every op each set's head must carry its head way's tag,
// and after every miss of Access, Lookup or Promote the absent memo must
// hold the missed line.
func TestPropLRUMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{2, 4}, {4, 8}, {2, 16}, {1, 32}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			f := func(seed uint64) bool { return matchesLRUReference(t, g.sets, g.ways, seed) }
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// matchesLRUReference runs 400 random ops, drawn from seed, on a cache of
// the given geometry and on the reference model, and reports whether every
// outcome agreed: hits, victims and their dirty bits, and the readiness
// Lookup, Access and Promote return. It also checks the two memos the
// probes keep: the head tags and absent.
func matchesLRUReference(t *testing.T, sets, ways int, seed uint64) bool {
	c := newTest(sets*ways*mem.LineSize, ways)
	rng := rand.New(rand.NewPCG(seed, 0))
	// reference: per set, slice of line addrs in MRU..LRU order; the
	// resident lines a write hit or MarkDirty made dirty; and each
	// resident line's readiness (a merged refill keeps the earlier one)
	ref := make([][]mem.Addr, sets)
	dirty := map[mem.Addr]bool{}
	ready := map[mem.Addr]int64{}
	setOf := func(addr mem.Addr) int { return int((addr >> mem.LineShift) % mem.Addr(sets)) }
	index := func(addr mem.Addr) int {
		return slices.Index(ref[setOf(addr)], addr)
	}
	remove := func(addr mem.Addr, i int) {
		set := setOf(addr)
		ref[set] = slices.Delete(ref[set], i, i+1)
		delete(dirty, addr)
		delete(ready, addr)
	}
	toMRU := func(addr mem.Addr, i int) {
		set := setOf(addr)
		ref[set] = slices.Insert(slices.Delete(ref[set], i, i+1), 0, addr)
	}
	fill := func(addr mem.Addr, at int64) bool {
		v := c.Fill(addr, mem.Property, at, false)
		if index(addr) >= 0 {
			ready[addr] = min(ready[addr], at)
			return !v.Valid // a refill of a resident line merges in place
		}
		set := setOf(addr)
		if len(ref[set]) == ways {
			lru := ref[set][ways-1]
			if !v.Valid || v.Addr != lru || v.Dirty != dirty[lru] {
				t.Logf("fill %#x: victim %+v, want LRU %#x dirty=%v", addr, v, lru, dirty[lru])
				return false
			}
			remove(lru, ways-1)
		} else if v.Valid {
			t.Logf("fill %#x: victim %+v from a set with an invalid way", addr, v)
			return false
		}
		ref[set] = slices.Insert(ref[set], 0, addr)
		ready[addr] = at
		return true
	}
	type fillAt struct {
		addr mem.Addr
		at   int64
	}
	var pending []fillAt // deferred fills, run after the next op
	for n := 0; n < 400; n++ {
		addr := mem.LineAddrOf(rng.IntN(2 * sets * ways)) // twice the capacity: sets fill and evict
		op, write, at := rng.IntN(8), rng.IntN(2) == 0, rng.Int64N(256)
		i := index(addr)
		switch op {
		case 0:
			if r, ok := c.Lookup(addr); ok != (i >= 0) || ok && r != ready[addr] {
				t.Logf("Lookup %#x = %d, %v; want %d, %v", addr, r, ok, ready[addr], i >= 0)
				return false
			}
		case 1:
			v := c.Invalidate(addr)
			if v.Valid != (i >= 0) || v.Valid && (v.Addr != addr || v.Dirty != dirty[addr]) {
				t.Logf("Invalidate %#x = %+v, want resident=%v dirty=%v", addr, v, i >= 0, dirty[addr])
				return false
			}
			if i >= 0 {
				remove(addr, i)
			}
		case 2:
			if r, ok := c.Promote(addr); ok != (i >= 0) || ok && r != ready[addr] {
				t.Logf("Promote %#x = %d, %v; want %d, %v", addr, r, ok, ready[addr], i >= 0)
				return false
			}
			if i >= 0 {
				toMRU(addr, i)
			}
		case 3:
			c.MarkDirty(addr)
			if i >= 0 {
				dirty[addr] = true
			}
		default:
			r, hit := c.Access(addr, mem.Property, write, 0)
			if hit != (i >= 0) || hit && r != ready[addr] {
				t.Logf("Access %#x = %d, %v; want %d, %v", addr, r, hit, ready[addr], i >= 0)
				return false
			}
			if hit {
				toMRU(addr, i)
				if write {
					dirty[addr] = true
				}
			}
		}
		probe := op == 0 || op == 2 || op >= 4 // Lookup, Promote, Access
		if probe && i < 0 && c.absent != uint64(addr>>mem.LineShift) {
			t.Logf("op %d missed on %#x but left absent at line %#x", op, addr, c.absent)
			return false
		}
		if !headsAgree(t, c) {
			return false
		}
		for _, p := range pending {
			if !fill(p.addr, p.at) || !headsAgree(t, c) {
				return false
			}
		}
		pending = pending[:0]
		if probe && i < 0 {
			if rng.IntN(2) == 0 {
				pending = append(pending, fillAt{addr, at})
			} else if !fill(addr, at) || !headsAgree(t, c) {
				return false
			}
		}
	}
	return true
}

// headsAgree reports whether every set's head carries the tag of the way
// it names.
func headsAgree(t *testing.T, c *Cache) bool {
	for si, h := range c.heads {
		if tag := c.tags[si*c.assoc+int(h.way)]; h.tag != tag {
			t.Logf("set %d: head way %d has tag %#x, head carries %#x", si, h.way, tag, h.tag)
			return false
		}
	}
	return true
}

// TestFingerprintCollisions fills a 32-way set with lines that all share
// one fingerprint byte, so every probe's zero-byte test flags every way
// and only the tags can tell the lines apart.
func TestFingerprintCollisions(t *testing.T) {
	const ways = 32
	c := newTest(ways*mem.LineSize, ways) // one set
	var lines []uint64
	for la := uint64(1); len(lines) <= ways; la++ {
		if c.fingerprint(la) == c.fingerprint(0) {
			lines = append(lines, la)
		}
	}
	for _, la := range lines[:ways] {
		c.Fill(mem.LineAddrOf(la), mem.Property, int64(la), false)
	}
	for _, la := range lines[:ways] {
		if r, ok := c.Lookup(mem.LineAddrOf(la)); !ok || r != int64(la) {
			t.Fatalf("Lookup line %#x = %d, %v; want %d, true", la, r, ok, la)
		}
	}
	if _, ok := c.Lookup(mem.LineAddrOf(lines[ways])); ok {
		t.Fatalf("line %#x found, but it was never filled", lines[ways])
	}
	if _, ok := c.Lookup(0); ok {
		t.Fatal("line 0 found, but it was never filled")
	}
}

func TestPropResidentNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTest(16*mem.LineSize, 4)
		for _, a := range addrs {
			c.Fill(mem.LineAddrOf(a), mem.Intermediate, 0, a%2 == 0)
			if c.ResidentLines() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropStatsConservation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTest(8*mem.LineSize, 2)
		for _, a := range addrs {
			addr := mem.LineAddrOf(a % 64)
			if _, ok := c.Access(addr, mem.Structure, false, 0); !ok {
				c.Fill(addr, mem.Structure, 0, false)
			}
		}
		s := c.Stats()
		return s.TotalHits()+s.TotalMisses() == s.TotalAccesses() &&
			s.TotalAccesses() == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
