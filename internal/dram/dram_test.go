package dram

import (
	"testing"
	"testing/quick"

	"droplet/internal/mem"
)

func newMC() *MemoryController { return NewMemoryController(DefaultConfig()) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{Channels: 1, BanksPerChannel: 8, RowBits: 2, RowHitCycles: 1, RowMissCycles: 2, TransferCycles: 1, MRBEntries: 8},
		{Channels: 1, BanksPerChannel: 8, RowBits: 13, RowHitCycles: 10, RowMissCycles: 5, TransferCycles: 1, MRBEntries: 8},
		{Channels: 1, BanksPerChannel: 8, RowBits: 13, RowHitCycles: 10, RowMissCycles: 20, TransferCycles: 1, MRBEntries: 0},
		{Channels: 1, BanksPerChannel: 8, RowBits: 13, RowHitCycles: 10, RowMissCycles: 20, TransferCycles: 1, MRBEntries: MaxEntries + 1},
		{Channels: 256, BanksPerChannel: 512, RowBits: 13, RowHitCycles: 10, RowMissCycles: 20, TransferCycles: 1, MRBEntries: 8},
		{Channels: 512, BanksPerChannel: 8, RowBits: 13, RowHitCycles: 10, RowMissCycles: 20, TransferCycles: 1, MRBEntries: 256},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	atCap := Config{Channels: 1, BanksPerChannel: MaxEntries, RowBits: 13, RowHitCycles: 10, RowMissCycles: 20, TransferCycles: 1, MRBEntries: MaxEntries}
	if err := atCap.Validate(); err != nil {
		t.Errorf("config at MaxEntries: %v", err)
	}
}

func TestRowBufferHitFaster(t *testing.T) {
	mc := newMC()
	first := mc.Access(Request{Addr: 0x10000}, 0)
	// Same row, later: should be a row hit and cheaper.
	second := mc.Access(Request{Addr: 0x10040}, first)
	missLat := first - 0
	hitLat := second - first
	if hitLat >= missLat {
		t.Errorf("row hit latency %d not below miss latency %d", hitLat, missLat)
	}
	s := mc.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("row hits=%d misses=%d", s.RowHits, s.RowMisses)
	}
}

func TestQueueDelayUnderBurst(t *testing.T) {
	mc := newMC()
	// Issue many simultaneous requests; completions must spread out due
	// to channel occupancy.
	var last int64
	for i := 0; i < 32; i++ {
		c := mc.Access(Request{Addr: mem.Addr(i) * 0x100000}, 0)
		if c < last {
			t.Fatalf("completion %d before previous %d under FIFO channel", c, last)
		}
		last = c
	}
	if mc.Stats().TotalQueueDelay == 0 {
		t.Error("burst produced no queue delay")
	}
	single := newMC().Access(Request{Addr: 0}, 0)
	if last <= single {
		t.Error("32-deep burst no slower than a single access")
	}
}

func TestWritesDoNotBlockCompletion(t *testing.T) {
	mc := newMC()
	c := mc.Access(Request{Addr: 0x40, Write: true}, 0)
	if c != 0 {
		t.Errorf("write returned completion %d, want issue time 0", c)
	}
	s := mc.Stats()
	if s.Writes != 1 || s.Reads != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCBitAccounting(t *testing.T) {
	mc := newMC()
	mc.Access(Request{Addr: 0x40, Prefetch: true, CBit: true, DType: mem.Structure}, 0)
	mc.Access(Request{Addr: 0x80000, DType: mem.Property}, 0)
	s := mc.Stats()
	if s.PrefetchReads != 1 || s.DemandReads != 1 {
		t.Errorf("prefetch=%d demand=%d", s.PrefetchReads, s.DemandReads)
	}
	if s.ReadsByType[mem.Structure] != 1 || s.ReadsByType[mem.Property] != 1 {
		t.Errorf("by-type = %v", s.ReadsByType)
	}
}

func TestBandwidthUtilization(t *testing.T) {
	mc := newMC()
	for i := 0; i < 10; i++ {
		mc.Access(Request{Addr: mem.Addr(i) << 20}, int64(i*100))
	}
	u := mc.BandwidthUtilization(1000)
	want := float64(10*DefaultConfig().TransferCycles) / 1000
	if u != want {
		t.Errorf("utilization = %v, want %v", u, want)
	}
	if mc.BandwidthUtilization(0) != 0 {
		t.Error("zero elapsed should give 0")
	}
}

func TestMRBCapacityStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MRBEntries = 2
	mc := NewMemoryController(cfg)
	for i := 0; i < 8; i++ {
		mc.Access(Request{Addr: mem.Addr(i) << 20}, 0)
	}
	if mc.Stats().MRBFullStalls == 0 {
		t.Error("tiny MRB never stalled under burst")
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 4
	mc := NewMemoryController(cfg)
	// Requests to different channels at t=0 should all complete at the
	// single-access latency (no queueing across channels).
	var max int64
	for i := 0; i < 4; i++ {
		c := mc.Access(Request{Addr: mem.LineAddrOf(i)}, 0)
		if c > max {
			max = c
		}
	}
	single := cfg.RowMissCycles + cfg.TransferCycles
	if max != single {
		t.Errorf("4-channel burst completes at %d, want %d", max, single)
	}
}

func TestPropCompletionNeverBeforeArrival(t *testing.T) {
	f := func(addrs []uint32, gaps []uint8) bool {
		mc := newMC()
		now := int64(0)
		for i, a := range addrs {
			if i < len(gaps) {
				now += int64(gaps[i])
			}
			c := mc.Access(Request{Addr: mem.Addr(a)}, now)
			if c < now+mc.cfg.RowHitCycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropChannelFIFOMonotonic(t *testing.T) {
	// With monotonically non-decreasing arrivals on one channel, starts
	// (and thus busy cycles) are serialized: busy <= last completion.
	f := func(addrs []uint16) bool {
		cfg := DefaultConfig()
		cfg.Channels = 1
		mc := NewMemoryController(cfg)
		var lastComplete int64
		for _, a := range addrs {
			c := mc.Access(Request{Addr: mem.LineAddrOf(a)}, 0)
			if c > lastComplete {
				lastComplete = c
			}
		}
		return mc.Stats().BusyCycles <= lastComplete || len(addrs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
