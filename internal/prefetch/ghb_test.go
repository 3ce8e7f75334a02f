package prefetch

import (
	"testing"

	"droplet/internal/mem"
)

func miss(addr mem.Addr) AccessInfo {
	return AccessInfo{VAddr: mem.LineAddr(addr), PAddr: mem.LineAddr(addr)}
}

func TestGHBLearnsRepeatingDeltaPattern(t *testing.T) {
	g := NewGHB(DefaultGHBConfig())
	// Pattern of line deltas: +1, +2, +1, +2, ... After one full period
	// the delta-pair correlation should predict the continuation.
	addr := mem.Addr(0x100000)
	deltas := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	var reqs []Req
	for _, d := range deltas {
		reqs = append(reqs, g.Observe(miss(addr), nil)...)
		addr += mem.Addr(d * mem.LineSize)
	}
	if len(reqs) == 0 {
		t.Fatal("GHB issued nothing on a periodic delta pattern")
	}
	// The first prediction replays history: after seeing pair (1,2) again,
	// the next delta in history is 1.
	found := false
	for _, r := range reqs {
		if r.VAddr > 0x100000 {
			found = true
		}
	}
	if !found {
		t.Error("no forward prefetches")
	}
}

func TestGHBIgnoresL2Hits(t *testing.T) {
	g := NewGHB(DefaultGHBConfig())
	ev := miss(0x1000)
	ev.L2Hit = true
	for i := 0; i < 10; i++ {
		if reqs := g.Observe(ev, nil); len(reqs) != 0 {
			t.Fatal("GHB trained on an L2 hit")
		}
		ev.VAddr += mem.LineSize
	}
}

func TestGHBNoPredictionOnRandomColdStream(t *testing.T) {
	g := NewGHB(DefaultGHBConfig())
	// Distinct large pseudo-random deltas: no pair repeats, so issued
	// prefetches should stay zero.
	addr := mem.Addr(0x40000000)
	step := mem.Addr(mem.LineSize)
	for i := 0; i < 64; i++ {
		g.Observe(miss(addr), nil)
		step = step*3 + 64 // strictly growing, never repeating deltas
		addr += step
	}
	if g.Issued != 0 {
		t.Errorf("GHB issued %d prefetches on a never-repeating stream", g.Issued)
	}
}

func TestGHBSequentialStream(t *testing.T) {
	g := NewGHB(DefaultGHBConfig())
	var reqs []Req
	for i := 0; i < 16; i++ {
		reqs = append(reqs, g.Observe(miss(mem.Addr(0x200000+i*mem.LineSize)), nil)...)
	}
	if len(reqs) == 0 {
		t.Fatal("GHB failed on a unit-stride stream")
	}
	// Unit-stride replay should produce next-line prefetches.
	for _, r := range reqs {
		if r.VAddr%mem.LineSize != 0 {
			t.Errorf("unaligned prefetch %#x", r.VAddr)
		}
	}
}

func TestGHBIndexTableBounded(t *testing.T) {
	cfg := DefaultGHBConfig()
	cfg.IndexSize = 8
	g := NewGHB(cfg)
	addr := mem.Addr(0x300000)
	step := mem.Addr(mem.LineSize)
	for i := 0; i < 1000; i++ {
		g.Observe(miss(addr), nil)
		step += mem.LineSize
		addr += step
	}
	if len(g.index) > 8 {
		t.Errorf("index table grew to %d entries, cap 8", len(g.index))
	}
}

func TestGHBInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad config")
		}
	}()
	NewGHB(GHBConfig{})
}

func TestVLDPLearnsInPagePattern(t *testing.T) {
	v := NewVLDP(DefaultVLDPConfig())
	// Same delta pattern on several pages: later pages should be
	// predicted from the DPT.
	var reqs []Req
	for page := 0; page < 4; page++ {
		base := mem.Addr(0x1000000 + page*mem.PageSize)
		for _, off := range []int64{0, 1, 3, 4, 6, 7, 9} { // deltas 1,2,1,2,1,2
			reqs = append(reqs, v.Observe(miss(base+mem.Addr(off*mem.LineSize)), nil)...)
		}
	}
	if len(reqs) == 0 {
		t.Fatal("VLDP issued nothing on a repeating per-page pattern")
	}
	for _, r := range reqs {
		if r.VAddr%mem.LineSize != 0 {
			t.Errorf("unaligned prefetch %#x", r.VAddr)
		}
	}
}

func TestVLDPPredictionsStayInPage(t *testing.T) {
	v := NewVLDP(DefaultVLDPConfig())
	for page := 0; page < 6; page++ {
		base := mem.Addr(0x2000000 + page*mem.PageSize)
		for _, off := range []int64{60, 61, 62, 63} {
			for _, r := range v.Observe(miss(base+mem.Addr(off*mem.LineSize)), nil) {
				if r.VAddr>>mem.PageShift != base>>mem.PageShift {
					t.Fatalf("prefetch %#x escaped page %#x", r.VAddr, base)
				}
			}
		}
	}
}

func TestVLDPOPTFirstAccessPrediction(t *testing.T) {
	v := NewVLDP(DefaultVLDPConfig())
	// Teach the OPT: pages whose first access is at offset 5 are followed
	// by offset 7 (first delta +2).
	for page := 0; page < 8; page++ {
		base := mem.Addr(0x3000000 + page*mem.PageSize)
		v.Observe(miss(base+5*mem.LineSize), nil)
		v.Observe(miss(base+7*mem.LineSize), nil)
	}
	// A brand-new page touched at offset 5 should trigger an OPT prefetch
	// of offset 7.
	reqs := v.Observe(miss(mem.Addr(0x5000000+5*mem.LineSize)), nil)
	if len(reqs) != 1 {
		t.Fatalf("OPT produced %d reqs, want 1", len(reqs))
	}
	want := mem.Addr(0x5000000 + 7*mem.LineSize)
	if reqs[0].VAddr != want {
		t.Errorf("OPT prefetch %#x, want %#x", reqs[0].VAddr, want)
	}
}

func TestVLDPIgnoresL2Hits(t *testing.T) {
	v := NewVLDP(DefaultVLDPConfig())
	ev := miss(0x1000)
	ev.L2Hit = true
	if reqs := v.Observe(ev, nil); len(reqs) != 0 {
		t.Fatal("VLDP trained on an L2 hit")
	}
}

func TestVLDPTablesBounded(t *testing.T) {
	cfg := DefaultVLDPConfig()
	cfg.DPTSize = 4
	cfg.OPTSize = 4
	v := NewVLDP(cfg)
	addr := mem.Addr(0x4000000)
	for i := 0; i < 500; i++ {
		v.Observe(miss(addr), nil)
		addr += mem.Addr((i%7 + 1) * mem.LineSize)
	}
	for i, d := range v.dpts {
		if len(d.m) > 4 {
			t.Errorf("DPT%d grew to %d entries", i+1, len(d.m))
		}
	}
	if len(v.opt.m) > 4 {
		t.Errorf("OPT grew to %d entries", len(v.opt.m))
	}
}

func TestVLDPInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad config")
		}
	}()
	NewVLDP(VLDPConfig{})
}
