package prefetch

import (
	"testing"

	"droplet/internal/dram"
	"droplet/internal/mem"
)

// fakeChip records MPP actions.
type fakeChip struct {
	onChip  map[mem.Addr]bool
	copies  []mem.Addr
	issues  []mem.Addr
	issueTs []int64
	fillL1s []bool
}

func (f *fakeChip) LineOnChip(p mem.Addr) bool { return f.onChip[p] }
func (f *fakeChip) CopyLLCToL2(core int, p mem.Addr, dt mem.DataType, now int64, fillL1 bool) bool {
	f.copies = append(f.copies, p)
	f.fillL1s = append(f.fillL1s, fillL1)
	return f.onChip[p]
}
func (f *fakeChip) IssueDRAMPrefetch(core int, p, v mem.Addr, dt mem.DataType, now int64, fillL1 bool) int64 {
	f.issues = append(f.issues, p)
	f.issueTs = append(f.issueTs, now)
	f.fillL1s = append(f.fillL1s, fillL1)
	return now + 100
}

// mppFixture builds an MPP over a tiny tagged address space.
type mppFixture struct {
	as   *mem.AddressSpace
	str  mem.Region
	prop mem.Region
	chip *fakeChip
	mpp  *MPP
	ids  map[mem.Addr][]uint32
}

func newMPPFixture(t *testing.T, cfg MPPConfig) *mppFixture {
	t.Helper()
	as := mem.NewAddressSpace()
	str := as.Malloc("neigh", 4*mem.PageSize, mem.Structure)
	prop := as.Malloc("prop", 4*mem.PageSize, mem.Property)
	fx := &mppFixture{
		as:   as,
		str:  str,
		prop: prop,
		chip: &fakeChip{onChip: make(map[mem.Addr]bool)},
		ids:  make(map[mem.Addr][]uint32),
	}
	scan := func(vline mem.Addr, ids []uint32) []uint32 { return append(ids, fx.ids[vline]...) }
	props := []PropArray{{Base: prop.Base, Elem: 4, Count: prop.Size / 4}}
	fx.mpp = NewMPP(cfg, as, scan, props)
	fx.mpp.Bind(fx.chip)
	return fx
}

func (fx *mppFixture) refill(cbit, prefetch bool) dram.Refill {
	vline := mem.LineAddr(fx.str.Base)
	pa, _ := fx.as.Translate(vline)
	return dram.Refill{
		Addr: pa, VAddr: vline, CoreID: 1,
		CBit: cbit, Prefetch: prefetch, DType: mem.Structure,
		ReadyAt: 1000, IssuedAt: 900,
	}
}

func (fx *mppFixture) propPaddr(id uint32) mem.Addr {
	pa, _ := fx.as.Translate(mem.LineAddr(fx.prop.Base + mem.Addr(id)*4))
	return pa
}

func TestMPPTriggerModes(t *testing.T) {
	cbitOnly := newMPPFixture(t, DefaultMPPConfig())
	if !cbitOnly.mpp.Triggered(cbitOnly.refill(true, true)) {
		t.Error("CBit mode should trigger on CBit refill")
	}
	if cbitOnly.mpp.Triggered(cbitOnly.refill(false, true)) {
		t.Error("CBit mode must ignore non-CBit prefetch refills")
	}

	cfg := DefaultMPPConfig()
	cfg.Trigger = TriggerStructureOracle
	oracle := newMPPFixture(t, cfg)
	if !oracle.mpp.Triggered(oracle.refill(false, true)) {
		t.Error("oracle mode should trigger on structure prefetch refill")
	}
	if oracle.mpp.Triggered(oracle.refill(false, false)) {
		t.Error("oracle mode must ignore demand refills")
	}
	r := oracle.refill(false, true)
	r.DType = mem.Property
	if oracle.mpp.Triggered(r) {
		t.Error("oracle mode must ignore property refills")
	}
}

func TestMPPGeneratesPropertyPrefetches(t *testing.T) {
	fx := newMPPFixture(t, DefaultMPPConfig())
	vline := mem.LineAddr(fx.str.Base)
	fx.ids[vline] = []uint32{10, 12, 10, 300} // 10 and 12 share a 64B line; 10 repeats
	fx.mpp.OnRefill(fx.refill(true, true))

	s := fx.mpp.Stats()
	if s.Triggers != 1 {
		t.Fatalf("triggers = %d", s.Triggers)
	}
	// IDs 10 and 12 share a 64B line (4B elements → 16 per line);
	// 300 is on another line: expect 2 unique property lines.
	if s.AddrsGenerated != 2 {
		t.Errorf("addresses generated = %d, want 2 (deduped)", s.AddrsGenerated)
	}
	if len(fx.chip.issues) != 2 {
		t.Fatalf("issued = %d, want 2", len(fx.chip.issues))
	}
	if fx.chip.issues[0] != fx.propPaddr(10) {
		t.Errorf("first issue %#x, want %#x", fx.chip.issues[0], fx.propPaddr(10))
	}
	// Issue time must include PAG + coherence check after refill.
	if fx.chip.issueTs[0] < 1000+DefaultMPPConfig().PAGLatency+DefaultMPPConfig().CoherenceCheckLatency {
		t.Errorf("issue time %d too early", fx.chip.issueTs[0])
	}
}

func TestMPPCopiesOnChipLines(t *testing.T) {
	fx := newMPPFixture(t, DefaultMPPConfig())
	vline := mem.LineAddr(fx.str.Base)
	fx.ids[vline] = []uint32{8}
	fx.chip.onChip[fx.propPaddr(8)] = true
	fx.mpp.OnRefill(fx.refill(true, true))
	if len(fx.chip.copies) != 1 || len(fx.chip.issues) != 0 {
		t.Errorf("copies=%d issues=%d, want 1/0", len(fx.chip.copies), len(fx.chip.issues))
	}
	if fx.mpp.Stats().CopiedFromLLC != 1 {
		t.Error("CopiedFromLLC not counted")
	}
}

func TestMPPDropsOutOfBoundsAndFaults(t *testing.T) {
	fx := newMPPFixture(t, DefaultMPPConfig())
	vline := mem.LineAddr(fx.str.Base)
	// 1<<30 exceeds Count → skipped before address generation.
	fx.ids[vline] = []uint32{1 << 30}
	fx.mpp.OnRefill(fx.refill(true, true))
	if fx.mpp.Stats().AddrsGenerated != 0 {
		t.Error("out-of-range ID should not generate an address")
	}
	if len(fx.chip.issues)+len(fx.chip.copies) != 0 {
		t.Error("nothing should be prefetched")
	}
}

func TestMPPVABCapacity(t *testing.T) {
	cfg := DefaultMPPConfig()
	cfg.VABEntries = 2
	fx := newMPPFixture(t, cfg)
	vline := mem.LineAddr(fx.str.Base)
	// 5 distinct property lines: ids 0, 16, 32, 48, 64 (16 ids per line).
	fx.ids[vline] = []uint32{0, 16, 32, 48, 64}
	fx.mpp.OnRefill(fx.refill(true, true))
	s := fx.mpp.Stats()
	if s.IssuedToDRAM != 2 {
		t.Errorf("issued = %d, want VAB cap 2", s.IssuedToDRAM)
	}
	if s.DroppedVABFull != 3 {
		t.Errorf("dropped = %d, want 3", s.DroppedVABFull)
	}
}

func TestMPPMTLBWalkPenalty(t *testing.T) {
	fx := newMPPFixture(t, DefaultMPPConfig())
	vline := mem.LineAddr(fx.str.Base)
	fx.ids[vline] = []uint32{0}
	fx.mpp.OnRefill(fx.refill(true, true)) // cold MTLB → walk
	coldIssue := fx.chip.issueTs[0]
	if fx.mpp.Stats().MTLBMisses != 1 {
		t.Fatalf("MTLB misses = %d, want 1", fx.mpp.Stats().MTLBMisses)
	}
	fx.mpp.OnRefill(fx.refill(true, true)) // warm MTLB
	warmIssue := fx.chip.issueTs[1]
	if coldIssue-warmIssue != DefaultMPPConfig().PageWalkLatency {
		t.Errorf("walk penalty = %d, want %d", coldIssue-warmIssue, DefaultMPPConfig().PageWalkLatency)
	}
}

func TestMPPMonolithicDelayAndL1Fill(t *testing.T) {
	cfg := DefaultMPPConfig()
	cfg.ExtraTriggerDelay = 40
	cfg.FillL1 = true
	cfg.Trigger = TriggerStructureOracle
	fx := newMPPFixture(t, cfg)
	vline := mem.LineAddr(fx.str.Base)
	fx.ids[vline] = []uint32{0}
	fx.mpp.OnRefill(fx.refill(false, true))
	base := newMPPFixture(t, DefaultMPPConfig())
	base.ids[mem.LineAddr(base.str.Base)] = []uint32{0}
	base.mpp.OnRefill(base.refill(true, true))
	if fx.chip.issueTs[0]-base.chip.issueTs[0] != 40 {
		t.Errorf("monolithic delay = %d, want 40", fx.chip.issueTs[0]-base.chip.issueTs[0])
	}
	if !fx.chip.fillL1s[0] {
		t.Error("monolithic arrangement should fill L1")
	}
}

func TestMPPShootdown(t *testing.T) {
	fx := newMPPFixture(t, DefaultMPPConfig())
	vline := mem.LineAddr(fx.str.Base)
	fx.ids[vline] = []uint32{0, 1 << 11} // two property pages
	fx.mpp.OnRefill(fx.refill(true, true))
	if fx.mpp.mtlb.Len() == 0 {
		t.Fatal("MTLB empty after prefetching")
	}
	propVPN := uint64(fx.prop.Base) >> mem.PageShift

	// A shootdown for a structure page must NOT touch the MTLB.
	if n := fx.mpp.Shootdown([]uint64{propVPN}, []bool{true}); n != 0 {
		t.Errorf("structure-page shootdown invalidated %d entries", n)
	}
	// A non-structure (property) shootdown must invalidate the entry.
	if n := fx.mpp.Shootdown([]uint64{propVPN}, []bool{false}); n != 1 {
		t.Errorf("property shootdown invalidated %d entries, want 1", n)
	}
}
