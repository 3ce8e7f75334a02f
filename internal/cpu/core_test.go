package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/trace"
)

// fixedPort returns a constant latency per data type and records issues.
type fixedPort struct {
	latency map[mem.DataType]int64
	level   map[mem.DataType]memsys.Level
	issues  []int64
}

func (p *fixedPort) Access(core int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64) (int64, memsys.Level) {
	p.issues = append(p.issues, now)
	lat := int64(4)
	lvl := memsys.LevelL1
	if p.latency != nil {
		if l, ok := p.latency[dtype]; ok {
			lat = l
		}
	}
	if p.level != nil {
		if l, ok := p.level[dtype]; ok {
			lvl = l
		}
	}
	return now + lat, lvl
}

func load(addr mem.Addr, dt mem.DataType, dep int32, comp uint16) trace.Event {
	return trace.Event{Addr: addr, Dep: dep, Comp: comp, Kind: trace.KindLoad, DType: dt}
}

func run(t *testing.T, cfg Config, port MemPort, evs []trace.Event) *Core {
	t.Helper()
	c := NewCore(0, cfg, port, evs)
	for !c.Done() {
		if c.AtBarrier() {
			c.PassBarrier(c.Clock())
			continue
		}
		c.Step()
	}
	return c
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// 8 independent DRAM-latency loads: with MLP they complete in far
	// less than 8×latency.
	port := &fixedPort{
		latency: map[mem.DataType]int64{mem.Property: 200},
		level:   map[mem.DataType]memsys.Level{mem.Property: memsys.LevelDRAM},
	}
	evs := make([]trace.Event, 8)
	for i := range evs {
		evs[i] = load(mem.Addr(i*64), mem.Property, trace.NoDep, 0)
	}
	c := run(t, DefaultConfig(), port, evs)
	if c.Stats().Cycles >= 8*200 {
		t.Errorf("cycles = %d; independent loads did not overlap", c.Stats().Cycles)
	}
	if c.Stats().Cycles < 200 {
		t.Errorf("cycles = %d below a single latency", c.Stats().Cycles)
	}
	if got := c.Stats().Loads; got != 8 {
		t.Errorf("loads = %d", got)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	port := &fixedPort{
		latency: map[mem.DataType]int64{mem.Property: 200},
		level:   map[mem.DataType]memsys.Level{mem.Property: memsys.LevelDRAM},
	}
	evs := make([]trace.Event, 8)
	for i := range evs {
		dep := trace.NoDep
		if i > 0 {
			dep = int32(i - 1)
		}
		evs[i] = load(mem.Addr(i*64), mem.Property, dep, 0)
	}
	c := run(t, DefaultConfig(), port, evs)
	if c.Stats().Cycles < 8*200 {
		t.Errorf("cycles = %d; dependency chain must serialize to >= 1600", c.Stats().Cycles)
	}
}

func TestLargerROBHelpsOnlyIndependentLoads(t *testing.T) {
	mkIndep := func() []trace.Event {
		evs := make([]trace.Event, 400)
		for i := range evs {
			evs[i] = load(mem.Addr(i*64), mem.Property, trace.NoDep, 2)
		}
		return evs
	}
	mkChain := func() []trace.Event {
		evs := make([]trace.Event, 400)
		for i := range evs {
			dep := trace.NoDep
			if i%2 == 1 {
				dep = int32(i - 1) // short producer→consumer pairs
			}
			evs[i] = load(mem.Addr(i*64), mem.Property, dep, 2)
		}
		return evs
	}
	port := func() *fixedPort {
		return &fixedPort{
			latency: map[mem.DataType]int64{mem.Property: 300},
			level:   map[mem.DataType]memsys.Level{mem.Property: memsys.LevelDRAM},
		}
	}
	small, big := DefaultConfig(), DefaultConfig()
	small.LoadQueue, big.LoadQueue = 1024, 1024 // isolate the ROB effect
	big.ROBSize = 4 * small.ROBSize

	indepSmall := run(t, small, port(), mkIndep()).Stats().Cycles
	indepBig := run(t, big, port(), mkIndep()).Stats().Cycles
	if float64(indepBig) > 0.6*float64(indepSmall) {
		t.Errorf("independent: 4x ROB gave %d vs %d — expected big speedup", indepBig, indepSmall)
	}

	// Producer→consumer pairs serialize each pair: at equal ROB the
	// chained stream must run substantially slower than the independent
	// one (the MLP halving of Observation #2).
	chainSmall := run(t, small, port(), mkChain()).Stats().Cycles
	if float64(chainSmall) < 1.5*float64(indepSmall) {
		t.Errorf("chained %d vs independent %d — chains should halve MLP", chainSmall, indepSmall)
	}
}

func TestLoadQueueBoundsMLP(t *testing.T) {
	mk := func() []trace.Event {
		evs := make([]trace.Event, 256)
		for i := range evs {
			evs[i] = load(mem.Addr(i*64), mem.Property, trace.NoDep, 0)
		}
		return evs
	}
	port := func() *fixedPort {
		return &fixedPort{
			latency: map[mem.DataType]int64{mem.Property: 500},
			level:   map[mem.DataType]memsys.Level{mem.Property: memsys.LevelDRAM},
		}
	}
	wide, narrow := DefaultConfig(), DefaultConfig()
	wide.ROBSize, narrow.ROBSize = 4096, 4096
	wide.LoadQueue, narrow.LoadQueue = 256, 2
	fast := run(t, wide, port(), mk())
	slow := run(t, narrow, port(), mk())
	if slow.Stats().Cycles <= fast.Stats().Cycles {
		t.Errorf("LQ=2 (%d cycles) not slower than LQ=256 (%d)", slow.Stats().Cycles, fast.Stats().Cycles)
	}
	if slow.Stats().LQFullStalls == 0 {
		t.Error("narrow LQ produced no stalls")
	}
	if fast.Stats().MLP() <= slow.Stats().MLP() {
		t.Errorf("MLP: wide %.2f <= narrow %.2f", fast.Stats().MLP(), slow.Stats().MLP())
	}
}

func TestCycleStackAttribution(t *testing.T) {
	port := &fixedPort{
		latency: map[mem.DataType]int64{mem.Property: 400, mem.Structure: 4},
		level: map[mem.DataType]memsys.Level{
			mem.Property:  memsys.LevelDRAM,
			mem.Structure: memsys.LevelL1,
		},
	}
	evs := []trace.Event{
		load(0, mem.Structure, trace.NoDep, 2),
		load(64, mem.Property, trace.NoDep, 2),
		load(128, mem.Structure, trace.NoDep, 2),
	}
	c := run(t, DefaultConfig(), port, evs)
	s := c.Stats()
	if s.StallByLevel[memsys.LevelDRAM] == 0 {
		t.Error("DRAM load produced no attributed stall")
	}
	// The DRAM-bound slice must dominate: L1 hits stall at most their
	// small access latency.
	if s.StallByLevel[memsys.LevelL1] >= s.StallByLevel[memsys.LevelDRAM]/10 {
		t.Errorf("L1 stall %d not ≪ DRAM stall %d", s.StallByLevel[memsys.LevelL1], s.StallByLevel[memsys.LevelDRAM])
	}
	if s.BaseCycles() <= 0 {
		t.Errorf("base cycles = %d", s.BaseCycles())
	}
	var total int64 = s.BaseCycles()
	for _, v := range s.StallByLevel {
		total += v
	}
	if s.Cycles != total {
		t.Errorf("cycle stack sums to %d, total %d", total, s.Cycles)
	}
}

func TestComputeInstructionsAdvanceClock(t *testing.T) {
	port := &fixedPort{}
	evs := []trace.Event{load(0, mem.Intermediate, trace.NoDep, 4000)}
	c := run(t, DefaultConfig(), port, evs)
	// 4001 instructions at width 4 ≈ 1000 cycles.
	if c.Stats().Cycles < 1000 {
		t.Errorf("cycles = %d, want >= 1000 for 4000 compute instrs", c.Stats().Cycles)
	}
	if c.Stats().Instructions != 4001 {
		t.Errorf("instructions = %d", c.Stats().Instructions)
	}
}

func TestStoresDoNotStallRetirement(t *testing.T) {
	port := &fixedPort{
		latency: map[mem.DataType]int64{mem.Property: 1000},
		level:   map[mem.DataType]memsys.Level{mem.Property: memsys.LevelDRAM},
	}
	evs := []trace.Event{
		{Addr: 0, Dep: trace.NoDep, Kind: trace.KindStore, DType: mem.Property},
		{Addr: 64, Dep: trace.NoDep, Kind: trace.KindStore, DType: mem.Property},
	}
	c := run(t, DefaultConfig(), port, evs)
	if c.Stats().Cycles > 100 {
		t.Errorf("stores stalled retirement: %d cycles", c.Stats().Cycles)
	}
	if c.Stats().Stores != 2 {
		t.Errorf("stores = %d", c.Stats().Stores)
	}
}

func TestBarrierAdvancesClock(t *testing.T) {
	port := &fixedPort{}
	evs := []trace.Event{
		load(0, mem.Intermediate, trace.NoDep, 0),
		{Dep: trace.NoDep, Kind: trace.KindBarrier},
		load(64, mem.Intermediate, trace.NoDep, 0),
	}
	c := NewCore(0, DefaultConfig(), port, evs)
	c.Step()
	if !c.AtBarrier() {
		t.Fatal("expected barrier")
	}
	c.PassBarrier(5000)
	if c.Clock() < 5000 {
		t.Errorf("clock = %d, want >= 5000 after barrier release", c.Clock())
	}
	c.Step()
	if !c.Done() {
		t.Error("stream should be done")
	}
	if len(port.issues) != 2 || port.issues[1] < 5000 {
		t.Errorf("post-barrier load issued at %v", port.issues)
	}
}

func TestDepConsumerWaitsForProducer(t *testing.T) {
	port := &fixedPort{
		latency: map[mem.DataType]int64{mem.Structure: 300, mem.Property: 10},
		level: map[mem.DataType]memsys.Level{
			mem.Structure: memsys.LevelDRAM,
			mem.Property:  memsys.LevelL3,
		},
	}
	evs := []trace.Event{
		load(0, mem.Structure, trace.NoDep, 0),
		load(64, mem.Property, 0, 0), // depends on event 0
	}
	run(t, DefaultConfig(), port, evs)
	if len(port.issues) != 2 {
		t.Fatalf("issues = %d", len(port.issues))
	}
	if port.issues[1] < port.issues[0]+300 {
		t.Errorf("consumer issued at %d, producer completes at %d", port.issues[1], port.issues[0]+300)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCore(0, Config{}, &fixedPort{}, nil)
}

// TestPropRetirementMonotone checks in-order retirement and instruction
// conservation over randomized event streams.
func TestPropRetirementMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		evs := make([]trace.Event, 0, len(raw))
		var loads int32
		for i, r := range raw {
			kind := trace.KindLoad
			if r&1 == 1 {
				kind = trace.KindStore
			}
			dep := trace.NoDep
			if kind == trace.KindLoad && loads > 0 && r&2 == 2 {
				dep = int32(i / 2 % int(loads)) // some earlier event; may not be a load
				if evs[dep].Kind != trace.KindLoad {
					dep = trace.NoDep
				}
			}
			evs = append(evs, trace.Event{
				Addr: mem.LineAddrOf(r),
				Dep:  dep, Comp: r % 7, Kind: kind,
				DType: mem.DataType(r % 3),
			})
			if kind == trace.KindLoad {
				loads++
			}
		}
		port := &fixedPort{latency: map[mem.DataType]int64{0: 4, 1: 40, 2: 150}}
		c := NewCore(0, DefaultConfig(), port, evs)
		for !c.Done() {
			if c.AtBarrier() {
				c.PassBarrier(c.Clock())
				continue
			}
			prev := c.lastRetire
			c.Step()
			if c.lastRetire < prev {
				return false
			}
		}
		var wantInstr int64
		for _, ev := range evs {
			wantInstr += int64(ev.Comp) + 1
		}
		return c.Stats().Instructions == wantInstr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPassBarrierWithoutBarrierPanics(t *testing.T) {
	c := NewCore(0, DefaultConfig(), &fixedPort{}, []trace.Event{load(0, mem.Intermediate, trace.NoDep, 0)})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.PassBarrier(0)
}

func TestStepOnBarrierPanics(t *testing.T) {
	c := NewCore(0, DefaultConfig(), &fixedPort{}, []trace.Event{{Dep: trace.NoDep, Kind: trace.KindBarrier}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Step()
}

func TestClockMonotoneAcrossBarriers(t *testing.T) {
	evs := []trace.Event{
		load(0, mem.Intermediate, trace.NoDep, 10),
		{Dep: trace.NoDep, Kind: trace.KindBarrier},
		load(64, mem.Intermediate, trace.NoDep, 10),
	}
	c := NewCore(0, DefaultConfig(), &fixedPort{}, evs)
	var prev int64
	for !c.Done() {
		if c.AtBarrier() {
			c.PassBarrier(c.Clock() + 100)
		} else {
			c.Step()
		}
		if clk := c.Clock(); clk < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, clk)
		} else {
			prev = clk
		}
	}
}

// TestRingSpanGuard pins the completion ring's reach: New sizes the ring
// to the smallest power of two at or above the span, a consumer exactly
// the ring's size after its producer still waits for it, and one event
// further trips the guard, for loads and stores alike.
func TestRingSpanGuard(t *testing.T) {
	// A slow producer load, dist-1 fast fillers, then a consumer of kind
	// reading the producer's completion dist events back.
	stream := func(dist int, kind trace.Kind) []trace.Event {
		evs := []trace.Event{load(0, mem.Structure, trace.NoDep, 0)}
		for i := 1; i < dist; i++ {
			evs = append(evs, load(mem.Addr(64*i), mem.Intermediate, trace.NoDep, 0))
		}
		return append(evs, trace.Event{Addr: 1 << 20, Dep: 0, Kind: kind, DType: mem.Property})
	}
	newCore := func(port *fixedPort, evs []trace.Event, span int) *Core {
		src := trace.SliceSource(evs)
		return New(0, DefaultConfig(), port, &src, span)
	}
	drain := func(c *Core) {
		for !c.Done() {
			c.Step()
		}
	}
	for _, consumer := range []struct {
		kind  trace.Kind
		guard string
	}{{trace.KindLoad, "load"}, {trace.KindStore, "store"}} {
		kind, guard := consumer.kind, consumer.guard
		for _, tc := range []struct{ span, ring int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {5, 8}} {
			port := &fixedPort{latency: map[mem.DataType]int64{mem.Structure: 300}}
			c := newCore(port, stream(tc.ring, kind), tc.span)
			if got := len(c.completeAt); got != tc.ring {
				t.Errorf("%s span %d: ring of %d slots, want %d", guard, tc.span, got, tc.ring)
			}
			drain(c)
			if got, want := port.issues[len(port.issues)-1], port.issues[0]+300; got < want {
				t.Errorf("%s span %d: consumer %d back issued at %d, before its producer completes at %d",
					guard, tc.span, tc.ring, got, want)
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, guard+" dependency distance exceeds") {
						t.Errorf("%s span %d: dependency %d back gave panic %q, want the %s guard",
							guard, tc.span, tc.ring+1, msg, guard)
					}
				}()
				drain(newCore(&fixedPort{}, stream(tc.ring+1, kind), tc.span))
			}()
		}
	}
}

// TestROBWindowPins pins a core's Stats on one fixed synthetic stream for
// ROB sizes of 1, 3, 96, 128 and 512 entries. The ROB window is a ring
// rounded up to a power of two (1, 4, 128, 128, 512 slots), so the odd
// sizes check that the rounding never lets an entry outlive its window.
// Every fourth block of 512 events is fast-forwarded, leaving entries in
// the window that the next detailed step retires. The pinned values are
// those of a window that grows by append and never wraps, the oracle for
// the ring; the digest covers every Stats field.
func TestROBWindowPins(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	evs := make([]trace.Event, 20000)
	for i := range evs {
		ev := trace.Event{
			Addr: mem.LineAddrOf(rng.IntN(1 << 12)),
			Dep:  trace.NoDep, Comp: uint16(rng.IntN(3)),
			Kind: trace.KindLoad, DType: mem.DataType(rng.IntN(3)),
		}
		if rng.IntN(5) == 0 {
			ev.Kind = trace.KindStore
		}
		if i > 0 && rng.IntN(8) == 0 {
			ev.Dep = int32(i - 1 - rng.IntN(min(i, 64)))
		}
		evs[i] = ev
	}
	for _, tc := range []struct {
		rob                    int
		cycles, robStalls, lqs int64
		digest                 string
	}{
		{1, 1209013, 15351, 0, "b659fecef4bd862b"},
		{3, 952363, 9815, 0, "e2b2b60fd6806e5e"},
		{96, 84907, 1182, 0, "e51c6834a70581e1"},
		{128, 68296, 889, 0, "0a8cdf6df65b1460"},
		{512, 26841, 229, 174, "7d75f409f316272a"},
	} {
		cfg := DefaultConfig()
		cfg.ROBSize = tc.rob
		port := &fixedPort{
			latency: map[mem.DataType]int64{0: 4, 1: 40, 2: 250},
			level:   map[mem.DataType]memsys.Level{1: memsys.LevelL3, 2: memsys.LevelDRAM},
		}
		src := trace.SliceSource(evs)
		c := New(0, cfg, port, &src, len(evs))
		for i := 0; !c.Done(); i++ {
			if i/512%4 == 3 {
				c.StepFast(false)
			} else {
				c.Step()
			}
		}
		st := c.Stats()
		sum := sha256.Sum256(fmt.Appendf(nil, "%+v", *st))
		digest := hex.EncodeToString(sum[:8])
		if st.Cycles != tc.cycles || st.ROBStalls != tc.robStalls || st.LQFullStalls != tc.lqs || digest != tc.digest {
			t.Errorf("ROB %d: cycles %d, ROB stalls %d, LQ stalls %d, stats digest %s; want %d, %d, %d, %s",
				tc.rob, st.Cycles, st.ROBStalls, st.LQFullStalls, digest, tc.cycles, tc.robStalls, tc.lqs, tc.digest)
		}
	}
}

// TestConfigValidate checks the bounds Validate puts on a core: every
// size at least 1, and the ROB and both queues at most MaxWindow, the
// largest ring or window New allocates.
func TestConfigValidate(t *testing.T) {
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	for _, cfg := range []Config{
		with(func(c *Config) { c.ROBSize = 0 }),
		with(func(c *Config) { c.DispatchWidth = 0 }),
		with(func(c *Config) { c.LoadQueue = -1 }),
		with(func(c *Config) { c.ROBSize = MaxWindow + 1 }),
		with(func(c *Config) { c.LoadQueue = MaxWindow + 1 }),
		with(func(c *Config) { c.StoreQueue = MaxWindow + 1 }),
	} {
		if err := cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), "cpu: ") {
			t.Errorf("Validate(%+v) = %v, want a cpu error", cfg, err)
		}
	}
	big := Config{ROBSize: MaxWindow, DispatchWidth: 4, LoadQueue: MaxWindow, StoreQueue: MaxWindow}
	if err := big.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil", big, err)
	}
	src := trace.SliceSource([]trace.Event{load(0, mem.Property, trace.NoDep, 0)})
	if c := New(0, big, &fixedPort{}, &src, 1); len(c.rob) != MaxWindow {
		t.Errorf("ROB of %d entries got a ring of %d slots", MaxWindow, len(c.rob))
	}
}
