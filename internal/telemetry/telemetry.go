// Package telemetry turns the simulator's cumulative counters into a
// stream of per-epoch records: a cycle-stack attribution per core whose
// components sum exactly to the elapsed cycles (conservation is checked
// on every epoch), data-type-aware demand/prefetch counters, per-engine
// prefetch statistics, and an MLP histogram. The simulator pulls the
// observer at a configurable cycle granularity; records flow to a
// pluggable Sink (JSONL stream, CSV table, or in-memory for tests).
//
// The epoch model is global: the simulator invokes Epoch the first time
// the elected (minimum-clock runnable) core's local clock crosses an
// epoch boundary, so every running core has already advanced past that
// boundary when the record is cut. Each per-core entry carries its own
// [StartCycle, EndCycle) window taken from the core's local clock;
// parked or finished cores simply contribute zero deltas. All counters
// are deltas over the epoch, never running totals, so records from
// different epochs can be summed freely.
//
// Conservation invariant (per core, per epoch):
//
//	EndCycle - StartCycle =
//	    Base + DepStall + QueueStall + BarrierStall + Σ MemStall[level]
//
// Base is derived as the remainder and is provably non-negative because
// every stall component accrued in a step is bounded by that step's
// cycle advance. ValidateRecord re-checks the identity on the consumer
// side; the Collector refuses to emit a violating record.
package telemetry

import (
	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/mem"
	"droplet/internal/memsys"
)

// Sources hands an Observer read-only access to the live machine. All
// pointers remain owned by the simulator; observers must only read them
// between steps (i.e. inside Epoch/Finish callbacks).
type Sources struct {
	Cores []*cpu.Core
	Hier  *memsys.Hierarchy
	Att   *core.Attachment
	// EpochCycles is the epoch granularity the simulator drives, in core
	// cycles (the default already applied).
	EpochCycles int64
}

// Observer is the pull-based hook the simulator drives. Attach is called
// once after machine construction and before the first step; Epoch is
// called whenever the elected core's clock first crosses an epoch
// boundary (minCycle is that clock); Finish is called exactly once after
// the last step with the final wall clock and flushes the sink.
type Observer interface {
	Attach(src Sources) error
	Epoch(minCycle int64)
	Finish(finalCycle int64) error
}

// RunMeta describes one simulation run. It is emitted once per stream
// (the JSONL meta line / CSV header context) so a record stream is
// self-describing: the label slices give the index order of every array
// field in the epoch records.
type RunMeta struct {
	Benchmark   string   `json:"benchmark,omitempty"`
	Kernel      string   `json:"kernel,omitempty"`
	Variant     string   `json:"variant,omitempty"`
	Prefetcher  string   `json:"prefetcher"`
	Cores       int      `json:"cores"`
	EpochCycles int64    `json:"epoch_cycles"`
	Levels      []string `json:"levels"`
	DataTypes   []string `json:"data_types"`
	MLPBuckets  []string `json:"mlp_buckets"`
}

// FillLabels populates the Levels/DataTypes/MLPBuckets label slices that
// document array index order. Collector calls it automatically.
func (m *RunMeta) FillLabels() {
	m.Levels = m.Levels[:0]
	for l := 0; l < memsys.NumLevels; l++ {
		m.Levels = append(m.Levels, memsys.Level(l).String())
	}
	m.DataTypes = m.DataTypes[:0]
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		m.DataTypes = append(m.DataTypes, mem.DataType(dt).String())
	}
	m.MLPBuckets = m.MLPBuckets[:0]
	for b := 0; b < cpu.MLPBuckets; b++ {
		m.MLPBuckets = append(m.MLPBuckets, cpu.MLPBucketLabel(b))
	}
}

// CoreEpoch is one core's cycle-stack attribution for one epoch. All
// fields are deltas over [StartCycle, EndCycle). The conservation
// identity Base + DepStall + QueueStall + BarrierStall + ΣMemStall =
// EndCycle - StartCycle holds exactly on every record.
type CoreEpoch struct {
	Core       int   `json:"core"`
	StartCycle int64 `json:"start_cycle"`
	EndCycle   int64 `json:"end_cycle"`

	Instructions int64 `json:"instructions"`
	Loads        int64 `json:"loads"`
	Stores       int64 `json:"stores"`

	// Base is compute: cycles not attributed to any stall component.
	Base int64 `json:"base"`
	// DepStall is the portion of memory stalls spent waiting on an older
	// load feeding the stalling access's address (dependency serialization).
	DepStall int64 `json:"dep_stall"`
	// QueueStall is the portion spent waiting for a load-queue slot —
	// the prefetch-queue/bandwidth component of the stack.
	QueueStall int64 `json:"queue_stall"`
	// BarrierStall is idle time parked at trace barriers.
	BarrierStall int64 `json:"barrier_stall"`
	// MemStall is the pure memory-latency portion per servicing level
	// (L1/L2/LLC/DRAM order per RunMeta.Levels), i.e. the full stall to
	// that level minus its dep and queue portions.
	MemStall [memsys.NumLevels]int64 `json:"mem_stall"`

	// LoadsByLevel counts demand loads by servicing level.
	LoadsByLevel [memsys.NumLevels]int64 `json:"loads_by_level"`
	// MLPHist buckets outstanding DRAM loads sampled at DRAM-load issue
	// (bucket labels in RunMeta.MLPBuckets).
	MLPHist [cpu.MLPBuckets]int64 `json:"mlp_hist"`
}

// Elapsed returns the epoch's cycle span for this core.
func (c *CoreEpoch) Elapsed() int64 { return c.EndCycle - c.StartCycle }

// MemEpoch aggregates the machine-wide memory-system deltas for one
// epoch. Data-type arrays follow RunMeta.DataTypes order.
type MemEpoch struct {
	// ServicedBy counts demand accesses by servicing level and data type.
	ServicedBy [memsys.NumLevels][mem.NumDataTypes]uint64 `json:"serviced_by"`
	// LLCDemandMisses counts DRAM-bound demand requests per data type.
	LLCDemandMisses [mem.NumDataTypes]uint64 `json:"llc_demand_misses"`
	// PrefetchIssued / PrefetchUseful give per-type prefetch accuracy;
	// DemandMergedInFlight is the timeliness signal (demand arrived while
	// the prefetched line was still in flight).
	PrefetchIssued         [mem.NumDataTypes]uint64 `json:"prefetch_issued"`
	PrefetchUseful         [mem.NumDataTypes]uint64 `json:"prefetch_useful"`
	DemandMergedInFlight   [mem.NumDataTypes]uint64 `json:"demand_merged_in_flight"`
	PrefetchFilteredOnChip uint64                   `json:"prefetch_filtered_on_chip"`

	DRAMReads         uint64 `json:"dram_reads"`
	DRAMWrites        uint64 `json:"dram_writes"`
	DRAMPrefetchReads uint64 `json:"dram_prefetch_reads"`
	DRAMRowHits       uint64 `json:"dram_row_hits"`
	DRAMRowMisses     uint64 `json:"dram_row_misses"`
	DRAMBusyCycles    int64  `json:"dram_busy_cycles"`
}

// EngineEpoch is one per-core prefetch engine's issue/reject deltas.
type EngineEpoch struct {
	Core     int    `json:"core"`
	Name     string `json:"name"`
	Issued   uint64 `json:"issued"`
	Rejected uint64 `json:"rejected,omitempty"`
}

// MPPEpoch mirrors prefetch.MPPStats as per-epoch deltas for the shared
// memory-side property prefetcher.
type MPPEpoch struct {
	Triggers       uint64 `json:"triggers"`
	AddrsGenerated uint64 `json:"addrs_generated"`
	CopiedFromLLC  uint64 `json:"copied_from_llc"`
	IssuedToDRAM   uint64 `json:"issued_to_dram"`
	DroppedVABFull uint64 `json:"dropped_vab_full"`
	DroppedFault   uint64 `json:"dropped_fault"`
	MTLBMisses     uint64 `json:"mtlb_misses"`
}

// EpochRecord is one epoch of telemetry. Epoch is a sequence number
// (0-based); MinCycle is the elected-core clock that triggered emission
// (the final record instead carries the run's final wall clock and sets
// Final).
type EpochRecord struct {
	Epoch    int64         `json:"epoch"`
	MinCycle int64         `json:"min_cycle"`
	Final    bool          `json:"final,omitempty"`
	Cores    []CoreEpoch   `json:"cores"`
	Mem      MemEpoch      `json:"mem"`
	Engines  []EngineEpoch `json:"engines,omitempty"`
	MPP      *MPPEpoch     `json:"mpp,omitempty"`
}
