package cache

import (
	"strings"
	"testing"

	"droplet/internal/mem"
)

// newPolicyTest builds a cache with the given geometry and policy.
func newPolicyTest(size, assoc int, k Kind, seed uint64) *Cache {
	return New(Config{Name: "t", SizeBytes: size, Assoc: assoc, LatencyTag: 1, LatencyData: 4, Policy: k, Seed: seed})
}

// lineAddr maps a small integer to a distinct line address.
func lineAddr(i int) mem.Addr { return mem.LineAddrOf(i) }

// wayOf returns the way index holding addr in a single-set cache, or -1.
func wayOf(c *Cache, addr mem.Addr) int {
	la := uint64(addr >> mem.LineShift)
	for i, t := range c.tags[:c.assoc] {
		if t == la {
			return i
		}
	}
	return -1
}

func TestParseReplacementRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseReplacement(k.String())
		if err != nil {
			t.Fatalf("ParseReplacement(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseReplacement(%q) = %v, want %v", k.String(), got, k)
		}
	}
	_, err := ParseReplacement("plru")
	if err == nil {
		t.Fatal("ParseReplacement(plru) should fail")
	}
	for _, k := range AllKinds() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not list valid policy %q", err, k.String())
		}
	}
}

func TestValidateRejectsUnknownPolicy(t *testing.T) {
	cfg := Config{Name: "p", SizeBytes: 32 * 1024, Assoc: 8, Policy: numKinds}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range policy")
	}
}

// TestLRUAgingOracle pins the LRU victim order on a single set: a fresh
// set fills its ways last first, a demand hit refreshes its line, and the
// victim is always the least recently used line.
func TestLRUAgingOracle(t *testing.T) {
	c := newPolicyTest(4*mem.LineSize, 4, KindLRU, 0)
	// Fills go to the last invalid way: A->way3, B->way2, C->way1, D->way0.
	for i, a := range []mem.Addr{lineAddr(1), lineAddr(2), lineAddr(3), lineAddr(4)} {
		if v := c.Fill(a, mem.Property, 0, false); v.Valid {
			t.Fatalf("fill %d evicted %+v from a non-full set", i, v)
		}
	}
	c.Access(lineAddr(1), mem.Property, false, 10) // refresh A
	v := c.Fill(lineAddr(5), mem.Property, 10, false)
	if !v.Valid || v.Addr != lineAddr(2) {
		t.Fatalf("victim = %+v, want oldest line B (%#x)", v, lineAddr(2))
	}
	// B was oldest after A's refresh; next oldest is C.
	v = c.Fill(lineAddr(6), mem.Property, 11, false)
	if !v.Valid || v.Addr != lineAddr(3) {
		t.Fatalf("victim = %+v, want line C (%#x)", v, lineAddr(3))
	}
}

// TestSRRIPOracle follows the RRPV aging by hand on one 4-way set.
func TestSRRIPOracle(t *testing.T) {
	c := newPolicyTest(4*mem.LineSize, 4, KindSRRIP, 0)
	// Demand fills insert at rrpv=2; ways fill in order A->3, B->2, C->1, D->0.
	for _, a := range []mem.Addr{lineAddr(1), lineAddr(2), lineAddr(3), lineAddr(4)} {
		c.Fill(a, mem.Property, 0, false)
	}
	for i := 0; i < 4; i++ {
		if c.rrpv[i] != rrpvLong {
			t.Fatalf("way %d rrpv = %d after demand insert, want %d", i, c.rrpv[i], rrpvLong)
		}
	}
	// A demand hit promotes to rrpv=0.
	c.Access(lineAddr(1), mem.Property, false, 5)
	if w := wayOf(c, lineAddr(1)); c.rrpv[w] != 0 {
		t.Fatalf("hit line rrpv = %d, want 0", c.rrpv[w])
	}
	// Victim scan: no way at 3, so all age by 1 (D=3,C=3,B=3,A=1) and the
	// first distant way wins: way0 = D.
	v := c.Fill(lineAddr(5), mem.Property, 6, false)
	if !v.Valid || v.Addr != lineAddr(4) {
		t.Fatalf("victim = %+v, want line D (%#x)", v, lineAddr(4))
	}
	// E replaced D at way0 with rrpv=2; next victim is the first way still
	// at 3: way1 = C.
	v = c.Fill(lineAddr(6), mem.Property, 7, false)
	if !v.Valid || v.Addr != lineAddr(3) {
		t.Fatalf("victim = %+v, want line C (%#x)", v, lineAddr(3))
	}
}

// TestRRIPPrefetchInsertAndPromote: prefetch fills insert distant (first
// casualty), and Promote refreshes RRPV without touching stats.
func TestRRIPPrefetchInsertAndPromote(t *testing.T) {
	c := newPolicyTest(2*mem.LineSize, 2, KindSRRIP, 0)
	c.Fill(lineAddr(1), mem.Property, 0, false) // demand: rrpv=2, way1
	c.Fill(lineAddr(2), mem.Property, 0, true)  // prefetch: rrpv=3, way0
	if w := wayOf(c, lineAddr(2)); c.rrpv[w] != rrpvDistant {
		t.Fatalf("prefetch insert rrpv = %d, want %d", c.rrpv[w], rrpvDistant)
	}
	v := c.Fill(lineAddr(3), mem.Property, 1, false)
	if !v.Valid || v.Addr != lineAddr(2) || !v.Prefetched {
		t.Fatalf("victim = %+v, want the untouched prefetch (%#x)", v, lineAddr(2))
	}
	c.Promote(lineAddr(1))
	if w := wayOf(c, lineAddr(1)); c.rrpv[w] != 0 {
		t.Fatalf("promoted line rrpv = %d, want 0", c.rrpv[w])
	}
	if got := c.Stats().TotalHits(); got != 0 {
		t.Fatalf("Promote counted %d demand hits", got)
	}
}

// TestBRRIPBimodalOracle: demand inserts are distant except every 32nd,
// which inserts long.
func TestBRRIPBimodalOracle(t *testing.T) {
	c := newPolicyTest(2*mem.LineSize, 2, KindBRRIP, 0)
	for i := 1; i <= 2*bipInterval; i++ {
		a := lineAddr(i)
		c.Fill(a, mem.Property, 0, false)
		want := uint8(rrpvDistant)
		if i%bipInterval == 0 {
			want = rrpvLong
		}
		if w := wayOf(c, a); c.rrpv[w] != want {
			t.Fatalf("insert %d rrpv = %d, want %d", i, c.rrpv[w], want)
		}
	}
}

// TestDRRIPDuelOracle drives the set-duel counter through leader-set
// fills and checks follower sets switch policy on the counter's sign.
func TestDRRIPDuelOracle(t *testing.T) {
	// 32 sets x 2 ways: set 0 leads SRRIP, set 16 leads BRRIP.
	c := newPolicyTest(64*mem.LineSize, 2, KindDRRIP, 0)
	setLine := func(set, n int) mem.Addr { return mem.LineAddrOf(set + 32*n) }

	// psel starts 0: followers use SRRIP (long inserts).
	c.Fill(setLine(1, 0), mem.Property, 0, false)
	if w := wayOf2(c, setLine(1, 0)); c.rrpv[w] != rrpvLong {
		t.Fatalf("follower insert at psel=0: rrpv = %d, want %d (SRRIP)", c.rrpv[w], rrpvLong)
	}
	// Two demand fills in the SRRIP leader set vote for BRRIP.
	c.Fill(setLine(0, 0), mem.Property, 0, false)
	c.Fill(setLine(0, 1), mem.Property, 0, false)
	if c.psel != 2 {
		t.Fatalf("psel = %d after 2 SRRIP-leader fills, want 2", c.psel)
	}
	// Followers now insert BRRIP: distant (bip counter not at boundary).
	c.Fill(setLine(2, 0), mem.Property, 0, false)
	if w := wayOf2(c, setLine(2, 0)); c.rrpv[w] != rrpvDistant {
		t.Fatalf("follower insert at psel>0: rrpv = %d, want %d (BRRIP)", c.rrpv[w], rrpvDistant)
	}
	// Three fills in the BRRIP leader set swing the duel back.
	for n := 0; n < 3; n++ {
		c.Fill(setLine(16, n), mem.Property, 0, false)
	}
	if c.psel != -1 {
		t.Fatalf("psel = %d, want -1", c.psel)
	}
	c.Fill(setLine(3, 0), mem.Property, 0, false)
	if w := wayOf2(c, setLine(3, 0)); c.rrpv[w] != rrpvLong {
		t.Fatalf("follower insert at psel<=0: rrpv = %d, want %d (SRRIP)", c.rrpv[w], rrpvLong)
	}
	// Leader sets follow their own policy regardless of psel: the BRRIP
	// leader inserted distant even while psel was positive.
	if w := wayOf2(c, setLine(16, 0)); c.rrpv[w] != rrpvDistant {
		t.Fatalf("BRRIP leader insert rrpv = %d, want %d", c.rrpv[w], rrpvDistant)
	}
}

// wayOf2 locates addr's flat way index in a multi-set cache, or -1.
func wayOf2(c *Cache, addr mem.Addr) int {
	la := uint64(addr >> mem.LineShift)
	base := int(la&c.setMask) * c.assoc
	for i, t := range c.tags[base : base+c.assoc] {
		if t == la {
			return base + i
		}
	}
	return -1
}

// shipColliding returns a line address != avoid whose SHiP signature
// matches (or, when match=false, differs from) that of la for dtype.
func shipColliding(la uint64, dtype mem.DataType, match bool) uint64 {
	want := shipSignature(la, dtype)
	for cand := la + 1; ; cand++ {
		if (shipSignature(cand, dtype) == want) == match {
			return cand
		}
	}
}

// TestSHiPTrainPredict walks the SHCT through train (hit), decay
// (dead-on-evict) and predict (insert depth) by hand.
func TestSHiPTrainPredict(t *testing.T) {
	c := newPolicyTest(2*mem.LineSize, 2, KindSHiP, 0)
	laX := uint64(0x40)
	sigX := shipSignature(laX, mem.Property)
	X := mem.LineAddrOf(laX)

	// Cold SHCT: insert predicts dead -> distant.
	c.Fill(X, mem.Property, 0, false)
	if w := wayOf(c, X); c.rrpv[w] != rrpvDistant {
		t.Fatalf("cold insert rrpv = %d, want %d", c.rrpv[w], rrpvDistant)
	}
	// A demand hit sets the outcome bit and trains the counter up.
	c.Access(X, mem.Property, false, 1)
	if c.shct[sigX] != 1 {
		t.Fatalf("shct[%d] = %d after hit, want 1", sigX, c.shct[sigX])
	}
	if w := wayOf(c, X); c.sigs[w]&sigOutcome == 0 {
		t.Fatal("outcome bit not set by demand hit")
	}

	// A second line with a different signature, never re-referenced.
	laY := shipColliding(laX, mem.Property, false)
	Y := mem.LineAddrOf(laY)
	sigY := shipSignature(laY, mem.Property)
	c.Fill(Y, mem.Property, 0, false) // distant (cold sig)

	// Evicting Y (rrpv 3 vs X's 0) trains sigY down; it is already 0 and
	// saturates there.
	laZ := shipColliding(laX, mem.Property, true) // same signature as X
	Z := mem.LineAddrOf(laZ)
	v := c.Fill(Z, mem.Property, 2, false)
	if !v.Valid || v.Addr != Y {
		t.Fatalf("victim = %+v, want Y (%#x)", v, Y)
	}
	if c.shct[sigY] != 0 {
		t.Fatalf("shct[%d] = %d after dead eviction, want 0", sigY, c.shct[sigY])
	}
	// Z shares X's trained signature: predicted live -> long insert.
	if w := wayOf(c, Z); c.rrpv[w] != rrpvLong {
		t.Fatalf("trained insert rrpv = %d, want %d", c.rrpv[w], rrpvLong)
	}

	// Evicting the re-referenced X must NOT train down (outcome bit set);
	// evicting the untouched Z must.
	c.Invalidate(Z) // free a way; back-invalidations never train
	if c.shct[sigX] != 1 {
		t.Fatalf("shct[%d] = %d after Invalidate, want untouched 1", sigX, c.shct[sigX])
	}
	c.Fill(Z, mem.Property, 3, false)
	v = c.Fill(mem.LineAddrOf(shipColliding(laZ, mem.Property, false)), mem.Property, 4, false)
	if !v.Valid {
		t.Fatal("expected a capacity eviction")
	}
	switch v.Addr {
	case Z:
		if c.shct[sigX] != 0 {
			t.Fatalf("shct[%d] = %d after dead Z eviction, want 0", sigX, c.shct[sigX])
		}
	case X:
		if c.shct[sigX] != 1 {
			t.Fatalf("shct[%d] = %d after live X eviction, want 1", sigX, c.shct[sigX])
		}
	}
}

// TestRandomSeededDeterminism: equal seeds replay the identical victim
// sequence; different seeds diverge; the policy never evicts an invalid
// way while the set has free ways.
func TestRandomSeededDeterminism(t *testing.T) {
	run := func(seed uint64) []mem.Addr {
		c := newPolicyTest(4*mem.LineSize, 4, KindRandom, seed)
		var victims []mem.Addr
		for i := 1; i <= 64; i++ {
			v := c.Fill(lineAddr(i), mem.Property, 0, false)
			if i <= 4 && v.Valid {
				t.Fatalf("fill %d evicted %+v before the set was full", i, v)
			}
			if i > 4 && !v.Valid {
				t.Fatalf("fill %d evicted nothing from a full set", i)
			}
			victims = append(victims, v.Addr)
		}
		return victims
	}
	a, b := run(12345), run(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fill %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	cSeq := run(54321)
	same := true
	for i := range a {
		if a[i] != cSeq[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 64-victim sequence")
	}
	if SaltSeed(7, 1) == SaltSeed(7, 2) {
		t.Fatal("SaltSeed must separate sibling instances")
	}
}

// TestPolicyDemandPathZeroAlloc: every policy's steady-state demand path
// (hits, misses, fills with evictions) allocates nothing.
func TestPolicyDemandPathZeroAlloc(t *testing.T) {
	for _, k := range AllKinds() {
		c := newPolicyTest(32<<10, 8, k, 99)
		lines := 2 * (32 << 10) / mem.LineSize // 2x capacity: steady eviction
		i := 0
		step := func() {
			addr := lineAddr(i % lines)
			if _, ok := c.Access(addr, mem.Property, i%7 == 0, int64(i)); !ok {
				c.Fill(addr, mem.Property, int64(i), i%13 == 0)
			}
			i++
		}
		for n := 0; n < 8192; n++ {
			step()
		}
		if avg := testing.AllocsPerRun(2000, step); avg != 0 {
			t.Errorf("%v: %v allocs per demand access, want 0", k, avg)
		}
	}
}

// TestPolicyConformance runs a mixed op stream under every policy, in a
// 4-way cache and a direct-mapped one (where every victim is its set's
// head way), and checks the policy-independent invariants: stats
// balance, residency bounds, hits on resident lines, and each set's head
// carrying its head way's tag.
func TestPolicyConformance(t *testing.T) {
	for _, k := range AllKinds() {
		for _, assoc := range []int{4, 1} {
			c := newPolicyTest(4<<10, assoc, k, 7)
			capacity := (4 << 10) / mem.LineSize
			for i := 0; i < 4096; i++ {
				addr := lineAddr(i % (3 * capacity / 2))
				if _, ok := c.Access(addr, mem.Structure, false, int64(i)); !ok {
					c.Fill(addr, mem.Structure, int64(i), false)
					if _, ok := c.Access(addr, mem.Structure, false, int64(i)); !ok {
						t.Fatalf("%v, %d-way: just-filled line %#x missed", k, assoc, addr)
					}
				}
				if i%97 == 0 {
					c.Invalidate(addr)
				}
				if !headsAgree(t, c) {
					t.Fatalf("%v, %d-way: op %d left a stale head tag", k, assoc, i)
				}
			}
			st := c.Stats()
			if st.TotalHits()+st.TotalMisses() != st.TotalAccesses() {
				t.Errorf("%v, %d-way: hits %d + misses %d != accesses %d", k, assoc, st.TotalHits(), st.TotalMisses(), st.TotalAccesses())
			}
			if n := c.ResidentLines(); n > capacity {
				t.Errorf("%v, %d-way: %d resident lines exceed capacity %d", k, assoc, n, capacity)
			}
		}
	}
}
