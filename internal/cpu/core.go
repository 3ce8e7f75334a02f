// Package cpu implements the out-of-order core timing model: an
// interval-style simulation of a ROB-windowed, width-limited pipeline in
// which loads issue as soon as (a) they have dispatched into the window,
// (b) their producer load has completed, and (c) a load-queue slot is
// free. This is exactly the machinery behind the paper's core-side
// observations: a larger ROB only helps when dependency chains don't
// serialize the loads (Observations #1 and #2), and retire-side stalls
// attribute to the hierarchy level that serviced the blocking load
// (Fig. 1's cycle stack).
package cpu

import (
	"fmt"
	"math/bits"

	"droplet/internal/inflight"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/trace"
)

// Config describes one core (Table I defaults via DefaultConfig).
type Config struct {
	ROBSize       int
	DispatchWidth int
	LoadQueue     int
	StoreQueue    int
}

// DefaultConfig returns the Table I core: 128-entry ROB, 4-wide,
// 48-entry load queue, 32-entry store queue.
func DefaultConfig() Config {
	return Config{ROBSize: 128, DispatchWidth: 4, LoadQueue: 48, StoreQueue: 32}
}

// MaxWindow is the largest ROBSize, LoadQueue or StoreQueue a core
// accepts. Each sizes a ring or completion window that New allocates
// whole, so an unbounded size would be an allocation the host cannot
// make; Table I's quadrupled core (a 512-entry ROB) is far below it.
const MaxWindow = 1 << 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ROBSize < 1 || c.DispatchWidth < 1 || c.LoadQueue < 1 || c.StoreQueue < 1 {
		return fmt.Errorf("cpu: non-positive config %+v", c)
	}
	if c.ROBSize > MaxWindow || c.LoadQueue > MaxWindow || c.StoreQueue > MaxWindow {
		return fmt.Errorf("cpu: ROB, load queue or store queue above %d entries in %+v", MaxWindow, c)
	}
	return nil
}

// MemPort is the core's view of the memory hierarchy.
type MemPort interface {
	Access(core int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64) (int64, memsys.Level)
}

// WarmPort is the optional functional-warming view of the hierarchy: it
// advances cache/TLB state for an access without computing detailed
// timing. StepFast uses it during sampled fast-forward epochs when the
// port implements it.
type WarmPort interface {
	Warm(core int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64)
}

// EventSource feeds a core its event stream in batches. Next returns the
// next non-empty batch, recycling the previous one, and nil at end of
// stream. trace.CoreSource serves a streamed trace in bounded batches;
// trace.SliceSource serves a materialized one as a single batch.
type EventSource interface {
	Next(recycle []trace.Event) []trace.Event
}

// MLPBuckets is the number of bins in Stats.MLPHist. Buckets cover
// outstanding-DRAM-load counts of 1, 2, 3, 4, 5-8, 9-16, 17-32, and 33+.
const MLPBuckets = 8

// MLPBucketLabel names histogram bucket i for sinks and table headers.
func MLPBucketLabel(i int) string {
	switch i {
	case 0, 1, 2, 3:
		return fmt.Sprintf("%d", i+1)
	case 4:
		return "5-8"
	case 5:
		return "9-16"
	case 6:
		return "17-32"
	default:
		return "33+"
	}
}

// mlpBucket maps an outstanding-DRAM-load count (>= 1) to its histogram
// bucket.
func mlpBucket(n int) int {
	switch {
	case n <= 4:
		return n - 1
	case n <= 8:
		return 4
	case n <= 16:
		return 5
	case n <= 32:
		return 6
	default:
		return 7
	}
}

// Stats aggregates one core's execution counters.
type Stats struct {
	Instructions int64
	Loads        int64
	Stores       int64
	// Cycles is the retirement time of the last instruction.
	Cycles int64
	// StallByLevel attributes retire-stall cycles to the hierarchy level
	// that serviced the blocking load.
	StallByLevel [memsys.NumLevels]int64
	// DepWaitByLevel is the portion of StallByLevel spent waiting for the
	// blocking load's producer to complete before it could even issue
	// (Observation #2's serialization), keyed by the level that eventually
	// serviced the consumer. Always <= StallByLevel per level.
	DepWaitByLevel [memsys.NumLevels]int64
	// QueueWaitByLevel is the portion of StallByLevel spent waiting for a
	// load-queue slot (the structural MLP limit), again keyed by the
	// servicing level and disjoint from DepWaitByLevel.
	QueueWaitByLevel [memsys.NumLevels]int64
	// BarrierStallCycles counts cycles parked at barriers waiting for the
	// release (the gap between this core's arrival and the latest
	// arrival). Telemetry splits it out of the base component; the
	// end-of-run CycleStack keeps it folded into base, as before.
	BarrierStallCycles int64
	// MLPHist histograms the number of outstanding DRAM loads observed at
	// each DRAM-load issue (bucket layout per MLPBucketLabel).
	MLPHist [MLPBuckets]int64
	// LoadsByLevel counts demand loads per servicing level.
	LoadsByLevel [memsys.NumLevels]int64
	// DRAMLatencySum is the summed in-flight time of DRAM-serviced loads;
	// divided by Cycles it is the average outstanding DRAM requests
	// (Little's-law MLP).
	DRAMLatencySum int64
	// LQFullStalls counts dispatches delayed by a full load queue.
	LQFullStalls int64
	// ROBStalls counts dispatches delayed by the ROB window.
	ROBStalls int64
}

// BaseCycles returns cycles not attributed to memory stalls.
func (s *Stats) BaseCycles() int64 {
	b := s.Cycles
	for _, v := range s.StallByLevel {
		b -= v
	}
	if b < 0 {
		b = 0
	}
	return b
}

// MLP returns the average number of outstanding DRAM loads.
func (s *Stats) MLP() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DRAMLatencySum) / float64(s.Cycles)
}

// robEntry remembers where an instruction retired, for the ROB-window
// dispatch constraint.
type robEntry struct {
	instr  int64
	retire int64
}

// Core simulates one core consuming its event stream from an
// EventSource, pulled one batch at a time (see New).
type Core struct {
	id     int
	cfg    Config
	port   MemPort
	stream []trace.Event
	pos    int

	// src is the batch source; base is the absolute stream index of
	// stream[0]. The refill invariant: whenever pos == len(stream), the
	// next batch is pulled immediately, so Done/AtBarrier never need to
	// know about batching.
	src  EventSource
	base int64
	// caMask folds absolute event indices into completeAt, a power-of-two
	// ring whose size bounds the representable dependency distance
	// (depLimit), checked at every dependent access.
	caMask   int64
	depLimit int64
	// warm is the port's functional-warming interface, resolved once at
	// construction (nil if the port doesn't provide one).
	warm WarmPort

	slots      int64 // dispatch slots consumed (cycles × width)
	lastRetire int64
	instr      int64

	// ffPace paces fast-forward: extra dispatch slots charged per
	// instruction beyond the ideal one, so StepFast advances the clock at
	// a measured CPI instead of the ideal 1/width (see SetFastPace).
	// ffDebt carries the fractional remainder between events.
	ffPace float64
	ffDebt float64

	completeAt []int64 // completion-time ring, indexed by event index & caMask (dep targets)
	// widthShift is log2(DispatchWidth) when it is a power of two, else
	// -1; dispatchCycle runs once or more per event, so the division is
	// worth replacing with a shift for the common 4-wide config.
	widthShift int
	// rob holds the memory instructions inside the current ROB window in
	// program order (instr ascending): a ring of a power of two at or above
	// ROBSize slots, live from sequence number robHead up to robTail, each
	// masked by robMask. Step pops every entry ROBSize or more
	// instructions old before it pushes one, and instructions are
	// distinct, so at most ROBSize entries are ever live.
	rob     []robEntry
	robMask int
	robHead int
	robTail int
	loadQ   inflight.Window // outstanding load completion times
	storeQ  inflight.Window // outstanding store completion times
	dramQ   inflight.Window // outstanding DRAM-load completion times (MLP histogram)

	stats Stats
}

// New builds core id over port, pulling its event stream from src.
// span bounds the distance from any event back to its producer — the
// source's dependency span, trace.Trace.DepSpan or trace.Stream.DepSpan.
// The completion ring gets the smallest power of two at or above span
// slots (one for a span of 0), and it resolves every dependency up to
// the ring's size back; one reaching further panics rather than reading
// an overwritten slot. The ROB window is a ring of the smallest power of
// two at or above cfg.ROBSize entries, and the load and store queues are
// completion windows of their configured sizes, all allocated here
// (Validate caps each size at MaxWindow). The core pulls its first batch
// before New returns. Invalid configs panic.
func New(id int, cfg Config, port MemPort, src EventSource, span int) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ring, rob := ceilPow2(span), ceilPow2(cfg.ROBSize)
	widthShift := -1
	if w := cfg.DispatchWidth; w&(w-1) == 0 {
		widthShift = bits.TrailingZeros64(uint64(w))
	}
	warm, _ := port.(WarmPort)
	c := &Core{
		id:         id,
		cfg:        cfg,
		port:       port,
		src:        src,
		caMask:     int64(ring - 1),
		depLimit:   int64(ring),
		warm:       warm,
		completeAt: make([]int64, ring),
		widthShift: widthShift,
		rob:        make([]robEntry, rob),
		robMask:    rob - 1,
		loadQ:      inflight.New(cfg.LoadQueue),
		storeQ:     inflight.New(cfg.StoreQueue),
		dramQ:      inflight.New(cfg.LoadQueue),
	}
	c.refill()
	return c
}

// ceilPow2 returns the smallest power of two at or above n (1 for n <= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewCore builds a core over a materialized stream whose dependencies
// may reach anywhere back in it: New over the slice as one batch, with
// a ring that covers the whole slice. A caller that knows the stream's
// span should call New with it instead.
func NewCore(id int, cfg Config, port MemPort, stream []trace.Event) *Core {
	src := trace.SliceSource(stream)
	return New(id, cfg, port, &src, len(stream))
}

// DefaultDepRingEvents is the completion ring NewStreamingCore falls
// back to when its caller passes no span (ringEvents <= 0): 2M events,
// 16 MiB per core, enough for CC on degrees well past the largest
// synthetic graphs. Callers that know their source's span pass it to New
// and get a ring of that size instead.
const DefaultDepRingEvents = 1 << 21

// NewStreamingCore builds a core that pulls its stream from src in
// bounded batches: New with span ringEvents, or DefaultDepRingEvents when
// ringEvents <= 0.
func NewStreamingCore(id int, cfg Config, port MemPort, src EventSource, ringEvents int) *Core {
	if ringEvents <= 0 {
		ringEvents = DefaultDepRingEvents
	}
	return New(id, cfg, port, src, ringEvents)
}

// refill pulls the next batch, recycling the finished one. On EOF the
// stream becomes nil, so Done reports true. Must only be called with
// pos == len(stream).
func (c *Core) refill() {
	c.base += int64(c.pos)
	c.pos = 0
	c.stream = c.src.Next(c.stream)
}

// Stats returns the live counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Clock returns the core's current local time in cycles.
func (c *Core) Clock() int64 {
	d := c.dispatchCycle()
	if c.lastRetire > d {
		return c.lastRetire
	}
	return d
}

// Done reports whether the stream is exhausted.
func (c *Core) Done() bool { return c.pos >= len(c.stream) }

// AtBarrier reports whether the next event is a barrier.
func (c *Core) AtBarrier() bool {
	return !c.Done() && c.stream[c.pos].Kind == trace.KindBarrier
}

// PassBarrier consumes a pending barrier event, setting the core's clocks
// to at least t (the barrier release time decided by the machine).
func (c *Core) PassBarrier(t int64) {
	if !c.AtBarrier() {
		panic("cpu: PassBarrier without pending barrier")
	}
	ev := c.stream[c.pos]
	c.dispatchCompute(int64(ev.Comp))
	c.pos++
	if c.pos == len(c.stream) {
		c.refill()
	}
	if t*int64(c.cfg.DispatchWidth) > c.slots {
		c.slots = t * int64(c.cfg.DispatchWidth)
	}
	if t > c.lastRetire {
		c.stats.BarrierStallCycles += t - c.lastRetire
		c.lastRetire = t
	}
	if c.lastRetire > c.stats.Cycles {
		c.stats.Cycles = c.lastRetire
	}
}

func (c *Core) dispatchCycle() int64 {
	if c.widthShift >= 0 {
		return c.slots >> uint(c.widthShift)
	}
	return c.slots / int64(c.cfg.DispatchWidth)
}

// dispatchCompute advances the dispatch clock through n compute
// instructions; they retire within the pipeline without memory stalls.
func (c *Core) dispatchCompute(n int64) {
	c.slots += n
	c.instr += n
	c.stats.Instructions += n
	// Compute retirement trails dispatch by one cycle; it only matters
	// when it outruns the last memory retire.
	if r := c.dispatchCycle() + 1; r > c.lastRetire {
		c.lastRetire = r
	}
}

// Step processes the next event. It must not be called when Done or
// AtBarrier.
//
//droplet:hotpath
func (c *Core) Step() {
	ev := c.stream[c.pos]
	idx := c.base + int64(c.pos)
	c.pos++
	if ev.Kind == trace.KindBarrier {
		panic("cpu: Step on barrier event; use PassBarrier")
	}

	c.dispatchCompute(int64(ev.Comp))

	// Dispatch the memory instruction itself.
	c.slots++
	c.instr++
	c.stats.Instructions++
	dispatch := c.dispatchCycle()

	// ROB window: this instruction may only dispatch once every
	// instruction ROBSize or more older has retired. Retirement is
	// in-order, so the newest such event carries the binding time.
	for ; c.robHead != c.robTail; c.robHead++ {
		e := &c.rob[c.robHead&c.robMask]
		if e.instr > c.instr-int64(c.cfg.ROBSize) {
			break
		}
		if e.retire > dispatch {
			dispatch = e.retire
			c.slots = dispatch * int64(c.cfg.DispatchWidth)
			c.stats.ROBStalls++
		}
	}

	switch ev.Kind {
	case trace.KindLoad:
		c.stats.Loads++
		issue := dispatch
		// Producer-consumer dependency: the address needs the producer
		// load's value (Observation #2's serialization).
		if ev.Dep >= 0 {
			if idx-int64(ev.Dep) > c.depLimit {
				panic("cpu: load dependency distance exceeds the completion ring")
			}
			if dep := c.completeAt[int64(ev.Dep)&c.caMask]; dep > issue {
				issue = dep
			}
		}
		depIssue := issue // issue time after the dependency, before LQ wait
		// Load-queue capacity bounds MLP: with the queue still full after
		// pruning, the earliest outstanding completion is the time a slot
		// frees.
		c.loadQ.Prune(issue)
		if c.loadQ.Len() >= c.cfg.LoadQueue {
			if oldest := c.loadQ.Min(); oldest > issue {
				issue = oldest
			}
			c.stats.LQFullStalls++
			c.loadQ.Prune(issue)
		}
		complete, lvl := c.port.Access(c.id, ev.Addr, ev.DType, false, issue)
		c.completeAt[idx&c.caMask] = complete
		c.loadQ.Push(complete)
		c.stats.LoadsByLevel[lvl]++
		if lvl == memsys.LevelDRAM {
			c.stats.DRAMLatencySum += complete - issue
			// Outstanding-DRAM concurrency at this issue point, for the
			// telemetry MLP histogram. dramQ mirrors loadQ's eager-prune
			// discipline at the same threshold, so its live set is exactly
			// the DRAM loads in flight at `issue` (a subset of loadQ).
			c.dramQ.Prune(issue)
			c.dramQ.Push(complete)
			c.stats.MLPHist[mlpBucket(c.dramQ.Len())]++
		}

		// In-order retirement: attribute the stall to the servicing level,
		// splitting off the time spent waiting to issue (producer
		// dependency first, then a load-queue slot) from the memory
		// latency itself. The three parts are disjoint and sum to stall.
		floor := max(c.lastRetire, dispatch+1)
		retire := max(complete, floor)
		if stall := retire - floor; stall > 0 {
			c.stats.StallByLevel[lvl] += stall
			dep := min(max(depIssue-floor, 0), stall)
			c.stats.DepWaitByLevel[lvl] += dep
			c.stats.QueueWaitByLevel[lvl] += min(max(issue-floor, 0), stall) - dep
		}
		c.lastRetire = retire
		c.recordROB(retire)

	case trace.KindStore:
		c.stats.Stores++
		issue := dispatch
		if ev.Dep >= 0 {
			if idx-int64(ev.Dep) > c.depLimit {
				panic("cpu: store dependency distance exceeds the completion ring")
			}
			if dep := c.completeAt[int64(ev.Dep)&c.caMask]; dep > issue {
				issue = dep
			}
		}
		// Store-queue capacity delays dispatch when full.
		c.storeQ.Prune(issue)
		if c.storeQ.Len() >= c.cfg.StoreQueue {
			if oldest := c.storeQ.Min(); oldest > issue {
				issue = oldest
			}
			c.storeQ.Prune(issue)
		}
		complete, _ := c.port.Access(c.id, ev.Addr, ev.DType, true, issue)
		c.completeAt[idx&c.caMask] = complete
		c.storeQ.Push(complete)
		// Stores retire from the store buffer without stalling the core.
		retire := max(c.lastRetire, dispatch+1)
		c.lastRetire = retire
		c.recordROB(retire)
	}

	if c.lastRetire > c.stats.Cycles {
		c.stats.Cycles = c.lastRetire
	}
	if c.pos == len(c.stream) {
		c.refill()
	}
}

// SetFastPace sets the CPI at which StepFast advances the core's clock.
// Fast-forwarding at the ideal 1/width CPI compresses the clock by the
// true CPI × width, which both starves periodic sampling of measurement
// windows and erases the inter-core arrival skew that determines barrier
// waits. Pacing fast-forward at the core's measured CPI keeps the clock —
// and with it barrier-release timing and window density — close to the
// detailed run's. Values at or below the ideal CPI reset to ideal pacing.
func (c *Core) SetFastPace(cpi float64) {
	pace := cpi*float64(c.cfg.DispatchWidth) - 1
	if pace < 0 {
		pace = 0
	}
	c.ffPace = pace
}

// StepFast processes the next event in fast-forward mode: functional
// state advances (instruction/load/store counts, the dispatch clock at
// the pace set by SetFastPace, and — when warm is set and the port
// supports it — cache and TLB contents), but no detailed timing is
// computed: no ROB window, no queue modeling, no stall attribution. The
// whole advance lands in the cycle stack's base component, which
// sampling discards; only measured epochs contribute timing. Must not be
// called when Done or AtBarrier.
//
//droplet:hotpath
func (c *Core) StepFast(warm bool) {
	ev := c.stream[c.pos]
	idx := c.base + int64(c.pos)
	c.pos++
	if ev.Kind == trace.KindBarrier {
		panic("cpu: StepFast on barrier event; use PassBarrier")
	}

	// Charge the pacing surcharge before dispatch so the event's own
	// completion and retire times land on the paced clock.
	if c.ffPace > 0 {
		c.ffDebt += float64(int64(ev.Comp)+1) * c.ffPace
		if add := int64(c.ffDebt); add > 0 {
			c.slots += add
			c.ffDebt -= float64(add)
		}
	}
	c.dispatchCompute(int64(ev.Comp))
	c.slots++
	c.instr++
	c.stats.Instructions++
	now := c.dispatchCycle()
	if ev.Kind == trace.KindLoad {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}
	if warm && c.warm != nil {
		c.warm.Warm(c.id, ev.Addr, ev.DType, ev.Kind == trace.KindStore, now)
	}
	// Record an idealized completion so dependency lookups from a later
	// detailed epoch resolve without fabricating stalls.
	c.completeAt[idx&c.caMask] = now
	if r := now + 1; r > c.lastRetire {
		c.lastRetire = r
	}
	if c.lastRetire > c.stats.Cycles {
		c.stats.Cycles = c.lastRetire
	}
	if c.pos == len(c.stream) {
		c.refill()
	}
}

func (c *Core) recordROB(retire int64) {
	c.rob[c.robTail&c.robMask] = robEntry{instr: c.instr, retire: retire}
	c.robTail++
}
