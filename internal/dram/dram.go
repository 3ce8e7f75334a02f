// Package dram models the DDR3-style main memory and the memory
// controller (MC) of Table I: per-channel bandwidth occupancy, per-bank
// row buffers, queueing delay that emerges from channel backlog, and the
// memory request buffer (MRB) whose C-bit + core-ID fields let DROPLET's
// MPP recognize structure-prefetch refills (Section V-C1).
package dram

import (
	"fmt"
	"math/bits"

	"droplet/internal/inflight"
	"droplet/internal/mem"
)

// Config describes the memory system.
type Config struct {
	// Channels is the number of independent DRAM channels (Table I uses a
	// single MC; Section VI discusses multiple).
	Channels int
	// BanksPerChannel sets the row-buffer count per channel.
	BanksPerChannel int
	// RowBits is log2 of the row size in bytes (default 13 → 8KB rows).
	RowBits int
	// RowHitCycles is the access latency when the row buffer hits;
	// RowMissCycles when a precharge+activate is needed. Table I's 45ns
	// device latency at 2.66GHz is ~120 cycles, split into the miss path;
	// queue delay is modeled by channel occupancy.
	RowHitCycles  int64
	RowMissCycles int64
	// TransferCycles is how long a 64B line occupies the channel.
	TransferCycles int64
	// MRBEntries bounds the in-flight request window per channel; a full
	// MRB stalls new requests behind the oldest outstanding one.
	MRBEntries int
}

// DefaultConfig returns the Table I memory system at a 2.66GHz core clock.
func DefaultConfig() Config {
	return Config{
		Channels:        1,
		BanksPerChannel: 8,
		RowBits:         13,
		RowHitCycles:    60,
		RowMissCycles:   120,
		TransferCycles:  4,
		MRBEntries:      256,
	}
}

// MaxEntries bounds the row buffers and the MRB entries a controller
// holds, each counted over all its channels. NewMemoryController
// allocates every channel's banks and MRB window up front, so an
// unbounded count would be an allocation the host cannot make; Table
// I's one channel of 8 banks and 256 MRB entries is far below it.
const MaxEntries = 1 << 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels < 1 || c.BanksPerChannel < 1 {
		return fmt.Errorf("dram: need >=1 channel and bank, got %d/%d", c.Channels, c.BanksPerChannel)
	}
	if c.RowBits < mem.LineShift {
		return fmt.Errorf("dram: RowBits %d smaller than line shift", c.RowBits)
	}
	if c.RowHitCycles <= 0 || c.RowMissCycles < c.RowHitCycles || c.TransferCycles <= 0 {
		return fmt.Errorf("dram: bad latencies hit=%d miss=%d xfer=%d", c.RowHitCycles, c.RowMissCycles, c.TransferCycles)
	}
	if c.MRBEntries < 1 {
		return fmt.Errorf("dram: MRBEntries %d < 1", c.MRBEntries)
	}
	if c.Channels > MaxEntries || c.BanksPerChannel > MaxEntries || c.MRBEntries > MaxEntries ||
		c.Channels*c.BanksPerChannel > MaxEntries || c.Channels*c.MRBEntries > MaxEntries {
		return fmt.Errorf("dram: %d channels of %d banks and %d MRB entries exceed %d banks or entries in all",
			c.Channels, c.BanksPerChannel, c.MRBEntries, MaxEntries)
	}
	return nil
}

// Request describes one line-sized memory access.
type Request struct {
	// Addr is the physical (line-aligned, byte-domain) address.
	//droplet:addr byte
	Addr mem.Addr
	// VAddr is the corresponding virtual line address, carried into the
	// read's Refill so the MPP can interpret the line's contents.
	//droplet:addr byte
	VAddr mem.Addr
	// CoreID records the requesting core (stored in the MRB so the MPP
	// can route property prefetches to the right private L2).
	CoreID int
	// Prefetch marks any prefetcher-issued request (scheduling priority
	// and bandwidth accounting).
	Prefetch bool
	// CBit is the MRB criticality bit reinterpreted per Section V-C1:
	// set only on prefetch requests issued by the data-aware L2 streamer,
	// which sends exclusively structure prefetches.
	CBit bool
	// Write marks writebacks, which consume bandwidth but complete
	// asynchronously.
	Write bool
	// DType tags the request's data type for statistics.
	DType mem.DataType
}

// Refill is the MC-side view of a completed read fill: the MRB fields of
// its Request plus the issue and completion times. The memory hierarchy
// builds one per DRAM read for its refill subscribers (the MPP taps
// this to see prefetched structure cachelines).
type Refill struct {
	// Addr and VAddr are the physical and virtual line-aligned addresses.
	//droplet:addr byte
	Addr mem.Addr
	//droplet:addr byte
	VAddr    mem.Addr
	CoreID   int
	Prefetch bool
	CBit     bool
	DType    mem.DataType
	ReadyAt  int64
	IssuedAt int64
}

// Stats aggregates memory-system counters.
type Stats struct {
	Reads, Writes   uint64
	PrefetchReads   uint64
	RowHits         uint64
	RowMisses       uint64
	BusyCycles      int64 // channel occupancy, the bandwidth numerator
	ReadsByType     [mem.NumDataTypes]uint64
	DemandReads     uint64
	MRBFullStalls   uint64
	TotalQueueDelay int64 // sum of (issue - arrival) over reads
}

// Accesses returns total bus transactions (the BPKI numerator).
func (s *Stats) Accesses() uint64 { return s.Reads + s.Writes }

// MemoryController is the single point of access to DRAM.
//
// Scheduling models the prefetch-aware priority of modern MCs (the reason
// the MRB carries the C-bit, Section V-C1): demand requests only queue
// behind other demand traffic, while prefetch and writeback requests wait
// for the channel to be free of everything — so a burst of property
// prefetches cannot starve the demand stream.
type MemoryController struct {
	cfg Config
	// demandFree is the next cycle a demand transfer can start; chanFree
	// additionally accounts prefetch occupancy; writeFree covers the
	// writeback drain queue.
	demandFree []int64
	writeFree  []int64
	chanFree   []int64   // next cycle each channel can start a transfer
	rowOpen    [][]int64 // open row per channel×bank, -1 when closed
	// mrb tracks outstanding read completion times per channel (a
	// bounded window emulating MRB capacity).
	mrb []inflight.Window
	// bankShift is log2(BanksPerChannel) when it is a power of two, else
	// -1; route uses it to replace two u64 divisions with shift/mask.
	bankShift int
	stats     Stats
}

// NewMemoryController builds an MC; invalid configs panic (construction-
// time programming error).
func NewMemoryController(cfg Config) *MemoryController {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	mc := &MemoryController{
		cfg:        cfg,
		demandFree: make([]int64, cfg.Channels),
		writeFree:  make([]int64, cfg.Channels),
		chanFree:   make([]int64, cfg.Channels),
		rowOpen:    make([][]int64, cfg.Channels),
		mrb:        make([]inflight.Window, cfg.Channels),
		bankShift:  -1,
	}
	if b := cfg.BanksPerChannel; b&(b-1) == 0 {
		mc.bankShift = bits.TrailingZeros64(uint64(b))
	}
	for i := range mc.rowOpen {
		mc.rowOpen[i] = make([]int64, cfg.BanksPerChannel)
		for b := range mc.rowOpen[i] {
			mc.rowOpen[i][b] = -1
		}
		// Live entries can exceed MRBEntries (a stalled request still
		// enters the window); Push grows it if a workload ever does.
		mc.mrb[i] = inflight.New(cfg.MRBEntries)
	}
	return mc
}

// Config returns the controller's configuration.
func (mc *MemoryController) Config() Config { return mc.cfg }

// Stats returns the live counters.
func (mc *MemoryController) Stats() *Stats { return &mc.stats }

//droplet:addr addr byte
func (mc *MemoryController) route(addr mem.Addr) (ch, bank int, row int64) {
	la := addr >> mem.LineShift
	ch = int(la) & (mc.cfg.Channels - 1)
	if mc.cfg.Channels&(mc.cfg.Channels-1) != 0 { // non-power-of-two channels
		ch = int(la % uint64(mc.cfg.Channels))
	}
	rowAddr := addr >> uint(mc.cfg.RowBits)
	if mc.bankShift >= 0 {
		bank = int(rowAddr) & (mc.cfg.BanksPerChannel - 1)
		row = int64(rowAddr >> uint(mc.bankShift))
		return ch, bank, row
	}
	bank = int(rowAddr % uint64(mc.cfg.BanksPerChannel))
	row = int64(rowAddr / uint64(mc.cfg.BanksPerChannel))
	return ch, bank, row
}

// Access schedules a request arriving at time now and returns its
// completion time. Writes return their channel-issue time (the writer
// does not wait for them).
//
//droplet:hotpath
func (mc *MemoryController) Access(req Request, now int64) int64 {
	ch, bank, row := mc.route(req.Addr)

	start := now
	demand := !req.Write && !req.Prefetch
	if demand {
		// Demands bypass queued prefetch/writeback traffic.
		if mc.demandFree[ch] > start {
			start = mc.demandFree[ch]
		}
	} else if req.Write {
		// Writebacks drain opportunistically from the write queue and are
		// issued by the hierarchy at fill-completion times; they get their
		// own cursor so their (possibly future) timestamps cannot inflate
		// the read backlog.
		if mc.writeFree[ch] > start {
			start = mc.writeFree[ch]
		}
	} else if mc.chanFree[ch] > start {
		start = mc.chanFree[ch]
	}
	// MRB capacity: with MRBEntries outstanding, stall behind the oldest.
	// Arrival times are not monotonic across cores, so pruning must stay
	// eager (an entry retired at a high `now` stays retired even when a
	// later access arrives earlier).
	mrb := &mc.mrb[ch]
	mrb.Prune(now)
	if mrb.Len() >= mc.cfg.MRBEntries {
		if oldest := mrb.Min(); oldest > start {
			start = oldest
		}
		mc.stats.MRBFullStalls++
	}

	lat := mc.cfg.RowMissCycles
	if mc.rowOpen[ch][bank] == row {
		lat = mc.cfg.RowHitCycles
		mc.stats.RowHits++
	} else {
		mc.stats.RowMisses++
		mc.rowOpen[ch][bank] = row
	}
	switch {
	case demand:
		mc.demandFree[ch] = start + mc.cfg.TransferCycles
	case req.Write:
		mc.writeFree[ch] = start + mc.cfg.TransferCycles
	}
	if end := start + mc.cfg.TransferCycles; end > mc.chanFree[ch] && !req.Write {
		mc.chanFree[ch] = end
	}
	mc.stats.BusyCycles += mc.cfg.TransferCycles
	complete := start + lat + mc.cfg.TransferCycles

	if req.Write {
		mc.stats.Writes++
		return start
	}
	mc.stats.Reads++
	mc.stats.ReadsByType[req.DType]++
	if req.Prefetch {
		mc.stats.PrefetchReads++
	} else {
		mc.stats.DemandReads++
	}
	mc.stats.TotalQueueDelay += start - now
	mrb.Push(complete)
	return complete
}

// EstimateDemand returns the completion time a demand read issued now for
// addr would have, without mutating controller state or statistics. The
// hierarchy uses it when a demand access merges with an in-flight
// prefetch: the MC promotes the outstanding request to demand priority
// (the C-bit's scheduling purpose), so the demand waits no longer than a
// fresh demand read would take.
//
//droplet:addr addr byte
func (mc *MemoryController) EstimateDemand(addr mem.Addr, now int64) int64 {
	ch, bank, row := mc.route(addr)
	start := now
	if mc.demandFree[ch] > start {
		start = mc.demandFree[ch]
	}
	lat := mc.cfg.RowMissCycles
	if mc.rowOpen[ch][bank] == row {
		lat = mc.cfg.RowHitCycles
	}
	return start + lat + mc.cfg.TransferCycles
}

// BandwidthUtilization returns the fraction of cycles the channels were
// busy over the first `elapsed` cycles (Fig. 3a's metric).
func (mc *MemoryController) BandwidthUtilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(mc.stats.BusyCycles) / float64(elapsed*int64(mc.cfg.Channels))
}
