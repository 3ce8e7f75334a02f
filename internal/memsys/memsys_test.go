package memsys

import (
	"math"
	"math/rand/v2"
	"testing"

	"droplet/internal/cache"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/prefetch"
)

// tinyConfig builds a small hierarchy: 1KB L1 (2-way), 4KB L2 (4-way),
// 16KB LLC (8-way).
func tinyConfig(cores int) Config {
	return Config{
		Cores: cores,
		L1:    cache.Config{Name: "L1", SizeBytes: 1 << 10, Assoc: 2, LatencyTag: 1, LatencyData: 4},
		L2:    cache.Config{Name: "L2", SizeBytes: 4 << 10, Assoc: 4, LatencyTag: 3, LatencyData: 8},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 16 << 10, Assoc: 8, LatencyTag: 10, LatencyData: 30},
		DRAM:  dram.DefaultConfig(),
	}
}

type fixture struct {
	h    *Hierarchy
	as   *mem.AddressSpace
	str  mem.Region
	prop mem.Region
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	as := mem.NewAddressSpace()
	str := as.Malloc("neigh", 64*mem.PageSize, mem.Structure)
	prop := as.Malloc("prop", 64*mem.PageSize, mem.Property)
	h, err := New(cfg, as)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &fixture{h: h, as: as, str: str, prop: prop}
}

func TestDemandMissWalksToDRAM(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	complete, lvl := fx.h.Access(0, fx.prop.Base, mem.Property, false, 0)
	if lvl != LevelDRAM {
		t.Fatalf("cold access serviced by %v, want DRAM", lvl)
	}
	if complete < 100 {
		t.Errorf("DRAM completion %d suspiciously fast", complete)
	}
	// The same line must now hit in L1 at a later time.
	c2, lvl2 := fx.h.Access(0, fx.prop.Base+8, mem.Property, false, complete+10)
	if lvl2 != LevelL1 {
		t.Fatalf("second access serviced by %v, want L1", lvl2)
	}
	if c2 != complete+10+4 {
		t.Errorf("L1 hit completion = %d, want now+4", c2)
	}
}

func TestInclusionAfterDemandFill(t *testing.T) {
	fx := newFixture(t, tinyConfig(2))
	fx.h.Access(0, fx.prop.Base, mem.Property, false, 0)
	pa, _ := fx.as.Translate(fx.prop.Base)
	for _, c := range []*cache.Cache{fx.h.L1(0), fx.h.L2(0), fx.h.LLC()} {
		if _, ok := c.Lookup(pa); !ok {
			t.Errorf("%s missing line after demand fill", c.Config().Name)
		}
	}
	if _, ok := fx.h.L1(1).Lookup(pa); ok {
		t.Error("other core's L1 should not have the line")
	}
}

func TestLLCEvictionBackInvalidates(t *testing.T) {
	cfg := tinyConfig(1)
	// Shrink LLC to 2 lines so evictions are easy to force.
	cfg.LLC = cache.Config{Name: "LLC", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 10, LatencyData: 30}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 3, LatencyData: 8}
	cfg.L1 = cache.Config{Name: "L1", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 1, LatencyData: 4}
	fx := newFixture(t, cfg)

	a := fx.prop.Base
	fx.h.Access(0, a, mem.Property, false, 0)
	pa, _ := fx.as.Translate(a)
	// Two more lines map to the same tiny LLC: a must get evicted.
	fx.h.Access(0, a+mem.LineSize, mem.Property, false, 1000)
	fx.h.Access(0, a+2*mem.LineSize, mem.Property, false, 2000)
	if _, ok := fx.h.LLC().Lookup(pa); ok {
		t.Fatal("line survived in tiny LLC")
	}
	if _, ok := fx.h.L1(0).Lookup(pa); ok {
		t.Error("inclusive eviction did not back-invalidate L1")
	}
	if _, ok := fx.h.L2(0).Lookup(pa); ok {
		t.Error("inclusive eviction did not back-invalidate L2")
	}
}

func TestDirtyEvictionReachesDRAM(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.LLC = cache.Config{Name: "LLC", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 10, LatencyData: 30}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 3, LatencyData: 8}
	cfg.L1 = cache.Config{Name: "L1", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 1, LatencyData: 4}
	fx := newFixture(t, cfg)

	fx.h.Access(0, fx.prop.Base, mem.Property, true, 0) // write → dirty in L1
	fx.h.Access(0, fx.prop.Base+mem.LineSize, mem.Property, false, 1000)
	fx.h.Access(0, fx.prop.Base+2*mem.LineSize, mem.Property, false, 2000)
	if w := fx.h.MC().Stats().Writes; w != 1 {
		t.Errorf("DRAM writes = %d, want 1 (dirty eviction)", w)
	}
}

func TestNoL2Hierarchy(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.NoL2 = true
	fx := newFixture(t, cfg)
	complete, lvl := fx.h.Access(0, fx.str.Base, mem.Structure, false, 0)
	if lvl != LevelDRAM {
		t.Fatalf("serviced by %v", lvl)
	}
	_, lvl = fx.h.Access(0, fx.str.Base, mem.Structure, false, complete+1)
	if lvl != LevelL1 {
		t.Errorf("second access: %v, want L1", lvl)
	}
	if fx.h.L2(0) != nil {
		t.Error("L2 should be nil under NoL2")
	}
	if fx.h.L2HitRate() != 0 {
		t.Error("L2HitRate should be 0 under NoL2")
	}
}

func TestServicedByAccounting(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	fx.h.Access(0, fx.str.Base, mem.Structure, false, 0)     // DRAM
	fx.h.Access(0, fx.str.Base, mem.Structure, false, 10000) // L1
	s := fx.h.Stats()
	if s.ServicedBy[LevelDRAM][mem.Structure] != 1 || s.ServicedBy[LevelL1][mem.Structure] != 1 {
		t.Errorf("ServicedBy = %+v", s.ServicedBy)
	}
	if s.LLCDemandMissesByType[mem.Structure] != 1 {
		t.Errorf("LLC demand misses = %v", s.LLCDemandMissesByType)
	}
}

func TestStreamerPrefetchImprovesLatency(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	if err := fx.h.AttachEngine(0, prefetch.NewStreamer(prefetch.DefaultStreamerConfig())); err != nil {
		t.Fatal(err)
	}

	// Stream through structure lines with big time gaps so prefetches
	// land before demand.
	now := int64(0)
	var firstLevels, laterLevels []Level
	for i := 0; i < 24; i++ {
		addr := fx.str.Base + mem.Addr(i*mem.LineSize)
		complete, lvl := fx.h.Access(0, addr, mem.Structure, false, now)
		now = complete + 500
		if i < 4 {
			firstLevels = append(firstLevels, lvl)
		} else {
			laterLevels = append(laterLevels, lvl)
		}
	}
	hits := 0
	for _, l := range laterLevels {
		if l == LevelL2 || l == LevelL1 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no prefetch-driven L2 hits; levels=%v", laterLevels)
	}
	if fx.h.Stats().PrefetchIssuedByType[mem.Structure] == 0 {
		t.Error("no structure prefetches issued")
	}
}

func TestPrefetchFilteredWhenResident(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	fx.h.Access(0, fx.str.Base, mem.Structure, false, 0)
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.str.Base}, 5000)
	if fx.h.Stats().PrefetchFilteredOnChip != 1 {
		t.Errorf("filtered = %d, want 1", fx.h.Stats().PrefetchFilteredOnChip)
	}
}

func TestPrefetchFromLLCNotDRAM(t *testing.T) {
	fx := newFixture(t, tinyConfig(2))
	// Core 1 pulls the line on-chip; LLC now holds it.
	fx.h.Access(1, fx.prop.Base, mem.Property, false, 0)
	reads := fx.h.MC().Stats().Reads
	// Core 0 prefetches the same line: must be an LLC copy, no DRAM read.
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.prop.Base}, 10000)
	if fx.h.MC().Stats().Reads != reads {
		t.Error("prefetch of LLC-resident line went to DRAM")
	}
	pa, _ := fx.as.Translate(fx.prop.Base)
	if _, ok := fx.h.L2(0).Lookup(pa); !ok {
		t.Error("prefetch did not install line in core 0's L2")
	}
}

func TestChipInterface(t *testing.T) {
	fx := newFixture(t, tinyConfig(2))
	var _ prefetch.Chip = fx.h

	pa, _ := fx.as.Translate(fx.prop.Base)
	if fx.h.CopyLLCToL2(0, pa, mem.Property, 100, false) {
		t.Error("cold line reported on-chip")
	}
	if _, ok := fx.h.LLC().Lookup(pa); ok {
		t.Error("CopyLLCToL2 brought a cold line on chip")
	}
	fx.h.Access(1, fx.prop.Base, mem.Property, false, 0)
	if _, ok := fx.h.LLC().Lookup(pa); !ok {
		t.Error("accessed line not in the LLC")
	}

	if !fx.h.CopyLLCToL2(0, pa, mem.Property, 5000, false) {
		t.Error("resident line reported off-chip")
	}
	if _, ok := fx.h.L2(0).Lookup(pa); !ok {
		t.Error("CopyLLCToL2 did not install the line")
	}
	if _, ok := fx.h.L1(0).Lookup(pa); ok {
		t.Error("CopyLLCToL2 without fillL1 touched L1")
	}

	pb, _ := fx.as.Translate(fx.prop.Base + 4*mem.PageSize)
	done := fx.h.IssueDRAMPrefetch(0, pb, fx.prop.Base+4*mem.PageSize, mem.Property, 6000, false)
	if done <= 6000 {
		t.Errorf("DRAM prefetch completion %d not after issue", done)
	}
	if _, ok := fx.h.LLC().Lookup(pb); !ok {
		t.Error("DRAM prefetch did not fill LLC")
	}
}

func TestPrefetchUsefulCounting(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.prop.Base}, 0)
	fx.h.Access(0, fx.prop.Base, mem.Property, false, 100000)
	u := fx.h.PrefetchUseful()
	if u[mem.Property] != 1 {
		t.Errorf("useful = %v, want 1 property", u)
	}
}

func TestMonoFillL1Path(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.str.Base, FillL1: true}, 0)
	pa, _ := fx.as.Translate(fx.str.Base)
	if _, ok := fx.h.L1(0).Lookup(pa); !ok {
		t.Error("FillL1 prefetch did not reach L1")
	}
}

func TestUnmappedPrefetchDropped(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: 0xdead_beef_0000}, 0)
	if fx.h.MC().Stats().Reads != 0 {
		t.Error("unmapped prefetch reached DRAM")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := tinyConfig(0)
	if _, err := New(cfg, mem.NewAddressSpace()); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(tinyConfig(MaxCores), mem.NewAddressSpace()); err != nil {
		t.Errorf("%d cores rejected: %v", MaxCores, err)
	}
	if _, err := New(tinyConfig(MaxCores+1), mem.NewAddressSpace()); err == nil {
		t.Errorf("%d cores accepted: the upper-residency mask has %d bits", MaxCores+1, MaxCores)
	}
	cfg = tinyConfig(1)
	cfg.L1.SizeBytes = 100
	if _, err := New(cfg, mem.NewAddressSpace()); err == nil {
		t.Error("bad L1 accepted")
	}
	cfg = tinyConfig(1)
	cfg.L2.SizeBytes = 0
	cfg.NoL2 = true
	if _, err := New(cfg, mem.NewAddressSpace()); err != nil {
		t.Errorf("NoL2 should skip L2 validation: %v", err)
	}
}

func TestDeferredRefillDelivery(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	var got []dram.Refill
	fx.h.SubscribeRefill(func(r dram.Refill) { got = append(got, r) })

	// A demand DRAM access schedules a refill completing in the future.
	complete, _ := fx.h.Access(0, fx.str.Base, mem.Structure, false, 0)
	if len(got) != 0 {
		t.Fatalf("refill delivered before completion: %d", len(got))
	}
	// An access before the completion time must not deliver it...
	fx.h.Access(0, fx.prop.Base, mem.Property, false, complete-2)
	if len(got) != 0 {
		t.Fatalf("refill delivered early")
	}
	// ...but one at/after the completion time must.
	fx.h.Access(0, fx.prop.Base+mem.PageSize, mem.Property, false, complete+1)
	if len(got) == 0 {
		t.Fatal("refill never delivered")
	}
	if got[0].VAddr != mem.LineAddr(fx.str.Base) {
		t.Errorf("refill vaddr = %#x", got[0].VAddr)
	}
}

// TestRefillSubscription: once a refill subscriber exists, every DRAM
// read buffers a refill carrying its request's line addresses, core,
// prefetch and C-bit flags, data type, and issue and completion times;
// writebacks never refill, and with no subscriber nothing is buffered.
func TestRefillSubscription(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.LLC = cache.Config{Name: "LLC", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 10, LatencyData: 30}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 3, LatencyData: 8}
	cfg.L1 = cache.Config{Name: "L1", SizeBytes: 2 * mem.LineSize, Assoc: 2, LatencyTag: 1, LatencyData: 4}
	fx := newFixture(t, cfg)

	fx.h.Access(0, fx.prop.Base, mem.Property, true, 0) // a store: dirty in L1
	if n := len(fx.h.pending); n != 0 {
		t.Fatalf("%d refills buffered with no subscriber", n)
	}

	var got []dram.Refill
	fx.h.SubscribeRefill(func(r dram.Refill) { got = append(got, r) })
	done := fx.h.read(dram.Request{Addr: 0x1234, VAddr: 0x5678, CoreID: 2, Prefetch: true, CBit: true, DType: mem.Structure}, 5)
	// Two more lines evict the dirty one from the two-line LLC.
	fx.h.Access(1, fx.prop.Base+mem.LineSize, mem.Property, false, 1000)
	fx.h.Access(1, fx.prop.Base+2*mem.LineSize, mem.Property, false, 2000)
	fx.h.drainRefills(math.MaxInt64)

	st := fx.h.MC().Stats()
	if st.Writes != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writes)
	}
	if len(got) != 3 || st.Reads != 4 {
		t.Fatalf("refills = %d over %d reads, want 3 (every read after subscribing)", len(got), st.Reads)
	}
	want := dram.Refill{
		Addr: mem.LineAddr(0x1234), VAddr: mem.LineAddr(0x5678), CoreID: 2,
		Prefetch: true, CBit: true, DType: mem.Structure, ReadyAt: done, IssuedAt: 5,
	}
	if got[0] != want {
		t.Errorf("refill = %+v, want %+v", got[0], want)
	}
	for _, r := range got[1:] {
		if r.CoreID != 1 || r.Prefetch || r.CBit || r.DType != mem.Property || r.ReadyAt <= r.IssuedAt {
			t.Errorf("demand refill = %+v", r)
		}
	}
}

func TestExpediteCapsInFlightWait(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	// Install an L2 line far in the future via a prefetch.
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.prop.Base}, 0)
	// A demand at t=1 must not wait for the full prefetch completion if a
	// fresh demand read would be faster.
	complete, _ := fx.h.Access(0, fx.prop.Base, mem.Property, false, 1)
	fresh := fx.h.MC().EstimateDemand(0, 1)
	if complete > fresh+100 {
		t.Errorf("demand waited %d, fresh estimate %d", complete, fresh)
	}
}

func TestPrefetchWithNoL2FillsL1(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.NoL2 = true
	fx := newFixture(t, cfg)
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.str.Base}, 0)
	pa, _ := fx.as.Translate(fx.str.Base)
	if _, ok := fx.h.L1(0).Lookup(pa); !ok {
		t.Error("NoL2 prefetch did not land in L1")
	}
	// Resident filter applies at the L1 under NoL2.
	fx.h.ExecutePrefetch(prefetch.Req{Core: 0, VAddr: fx.str.Base}, 100000)
	if fx.h.Stats().PrefetchFilteredOnChip != 1 {
		t.Errorf("filtered = %d, want 1", fx.h.Stats().PrefetchFilteredOnChip)
	}
}

func TestAccessUnmappedPanics(t *testing.T) {
	fx := newFixture(t, tinyConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unmapped demand access")
		}
	}()
	fx.h.Access(0, 0xdead_beef_f000, mem.Property, false, 0)
}

// expediteNoFloor is expedite without its floor: it always probes the
// LLC and asks the MC.
func expediteNoFloor(h *Hierarchy, paddr mem.Addr, ready, now int64) int64 {
	llcLat := int64(h.cfg.LLC.LatencyTag + h.cfg.LLC.LatencyData)
	if lr, ok := h.llc.Lookup(paddr); ok && lr < ready {
		if alt := max(lr, now) + llcLat; alt < ready {
			ready = alt
		}
	}
	if est := h.mc.EstimateDemand(paddr, now) + int64(h.cfg.LLC.LatencyTag); est < ready {
		ready = est
	}
	return ready
}

// TestExpediteFloorIsExact: expedite's floor changes no wait. On a warmed
// hierarchy, random (ready, now) pairs, with waits from one cycle to
// three floors, get the same answer from expedite as from a copy that
// always probes. The configs are Table I (the LLC copy sets the floor),
// one whose DRAM row hit sets it, and two DRAM channels. Each config
// must also see a wait one cycle above the floor that an alternative
// shortens, so a floor one cycle too high would fail, and lines absent
// from the LLC, which leave the fresh read as the only alternative.
func TestExpediteFloorIsExact(t *testing.T) {
	tableI := Config{
		Cores: 4,
		L1:    cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4},
		L2:    cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LatencyTag: 3, LatencyData: 8},
		LLC:   cache.Config{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LatencyTag: 10, LatencyData: 30},
		DRAM:  dram.DefaultConfig(),
	}
	fastDRAM := tableI
	fastDRAM.DRAM.RowHitCycles, fastDRAM.DRAM.RowMissCycles, fastDRAM.DRAM.TransferCycles = 12, 30, 2
	twoChannels := tableI
	twoChannels.DRAM.Channels = 2
	for _, tc := range []struct {
		name  string
		cfg   Config
		floor int64
	}{{"TableI", tableI, 40}, {"DRAMFloor", fastDRAM, 24}, {"TwoChannels", twoChannels, 40}} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, tc.cfg)
			h := fx.h
			if h.expediteFloor != tc.floor {
				t.Fatalf("floor %d, want %d", h.expediteFloor, tc.floor)
			}
			rng := rand.New(rand.NewPCG(5, 9))
			// Warm: demands and prefetches from every core over both
			// regions, so lines sit in the LLC, rows are open and the MC's
			// demand cursor has moved.
			var addrs []mem.Addr
			var clock int64
			for i := 0; i < 4000; i++ {
				r := fx.prop
				if rng.IntN(2) == 0 {
					r = fx.str
				}
				va := r.Base + mem.Addr(rng.IntN(int(r.Size)))
				core := rng.IntN(tc.cfg.Cores)
				clock += int64(rng.IntN(20))
				if rng.IntN(4) == 0 {
					h.ExecutePrefetch(prefetch.Req{Core: core, VAddr: va}, clock)
				} else {
					h.Access(core, va, r.Type, rng.IntN(8) == 0, clock)
				}
				pa, _ := fx.as.Translate(va)
				addrs = append(addrs, mem.LineAddr(pa))
			}
			shortenedAbove, notInLLC := 0, 0
			for i := 0; i < 20000; i++ {
				// Most picks are recent lines, whose DRAM rows are open; a
				// quarter are any line of the two regions, most of them
				// never accessed and so absent from the LLC.
				pa := addrs[len(addrs)-1-rng.IntN(len(addrs))/(1+rng.IntN(8))]
				if rng.IntN(4) == 0 {
					r := fx.prop
					if rng.IntN(2) == 0 {
						r = fx.str
					}
					pa, _ = fx.as.Translate(r.Base + mem.Addr(rng.IntN(int(r.Size))))
				}
				if _, ok := h.llc.Lookup(pa); !ok {
					notInLLC++
				}
				now := clock + int64(rng.IntN(4000)) - 2000
				ready := now + 1 + rng.Int64N(3*tc.floor)
				want := expediteNoFloor(h, pa, ready, now)
				if got := h.expedite(pa, ready, now); got != want {
					t.Fatalf("expedite(%#x, ready %d, now %d) = %d, want %d", pa, ready, now, got, want)
				}
				if ready-now == tc.floor+1 && want < ready {
					shortenedAbove++
				}
			}
			if shortenedAbove == 0 || notInLLC == 0 {
				t.Errorf("%d waits one cycle above the floor shortened, %d picks absent from the LLC; want some of each",
					shortenedAbove, notInLLC)
			}
		})
	}
}
