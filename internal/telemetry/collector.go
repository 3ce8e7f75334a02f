package telemetry

import (
	"fmt"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/prefetch"
)

// Collector is the standard Observer: it snapshots the machine's
// cumulative counters at every epoch boundary, diffs them against the
// previous snapshot into a reused EpochRecord, checks the cycle-stack
// conservation invariant, and hands the record to a Sink. All snapshot
// blocks are pre-allocated at Attach, so steady-state collection does
// not allocate (the sink may; the in-memory sink copies records).
type Collector struct {
	sink Sink
	meta RunMeta

	src        Sources
	prevCore   []cpu.Stats
	prevMem    memsys.Stats
	prevDRAM   dram.Stats
	prevMPP    prefetch.MPPStats
	prevEng    []core.EngineSnapshot
	engBuf     []core.EngineSnapshot
	prevUseful [mem.NumDataTypes]uint64

	rec      EpochRecord
	epoch    int64
	finished bool
	err      error
}

// NewCollector builds a Collector writing to sink. meta's label slices
// are filled automatically, and Attach fills Cores, Prefetcher and
// EpochCycles from the machine the simulator drives.
func NewCollector(sink Sink, meta RunMeta) *Collector {
	meta.FillLabels()
	return &Collector{sink: sink, meta: meta}
}

// Attach implements Observer: it pre-allocates all per-core snapshot and
// record blocks and emits the meta line to the sink.
func (c *Collector) Attach(src Sources) error {
	c.src = src
	n := len(src.Cores)
	c.meta.Cores = n
	c.meta.EpochCycles = src.EpochCycles
	if src.Att != nil {
		c.meta.Prefetcher = src.Att.Kind.String()
	}
	c.prevCore = make([]cpu.Stats, n)
	for i, co := range src.Cores {
		c.prevCore[i] = *co.Stats()
	}
	c.prevMem = *src.Hier.Stats()
	c.prevDRAM = *src.Hier.MC().Stats()
	c.prevUseful = src.Hier.PrefetchUseful()
	if src.Att != nil {
		c.engBuf = src.Att.Engines(make([]core.EngineSnapshot, 0, 4*n))
		c.prevEng = append([]core.EngineSnapshot(nil), c.engBuf...)
		if src.Att.MPP != nil {
			c.prevMPP = *src.Att.MPP.Stats()
			c.rec.MPP = new(MPPEpoch)
		}
	}
	c.rec.Cores = make([]CoreEpoch, 0, n)
	c.rec.Engines = make([]EngineEpoch, 0, len(c.prevEng))
	if err := c.sink.Begin(&c.meta); err != nil {
		c.err = err
		return err
	}
	return nil
}

// Epoch implements Observer: cut a record at boundary clock minCycle.
func (c *Collector) Epoch(minCycle int64) {
	if c.err != nil {
		return
	}
	c.emit(minCycle, false)
}

// Finish implements Observer: emit the final partial epoch, flush the
// sink, and report any accumulated error (sink failures or a
// conservation violation).
func (c *Collector) Finish(finalCycle int64) error {
	if !c.finished {
		c.finished = true
		if c.err == nil {
			c.emit(finalCycle, true)
		}
		if err := c.sink.End(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}

// Err returns the first error the collector encountered.
func (c *Collector) Err() error { return c.err }

func (c *Collector) emit(minCycle int64, final bool) {
	rec := &c.rec
	rec.Epoch = c.epoch
	rec.MinCycle = minCycle
	rec.Final = final
	rec.Cores = rec.Cores[:0]

	for i, co := range c.src.Cores {
		cur := *co.Stats()
		prev := &c.prevCore[i]
		ce := CoreEpoch{
			Core:         i,
			StartCycle:   prev.Cycles,
			EndCycle:     cur.Cycles,
			Instructions: cur.Instructions - prev.Instructions,
			Loads:        cur.Loads - prev.Loads,
			Stores:       cur.Stores - prev.Stores,
			BarrierStall: cur.BarrierStallCycles - prev.BarrierStallCycles,
		}
		for l := 0; l < memsys.NumLevels; l++ {
			stall := cur.StallByLevel[l] - prev.StallByLevel[l]
			dep := cur.DepWaitByLevel[l] - prev.DepWaitByLevel[l]
			queue := cur.QueueWaitByLevel[l] - prev.QueueWaitByLevel[l]
			ce.DepStall += dep
			ce.QueueStall += queue
			ce.MemStall[l] = stall - dep - queue
			ce.LoadsByLevel[l] = cur.LoadsByLevel[l] - prev.LoadsByLevel[l]
		}
		for b := 0; b < cpu.MLPBuckets; b++ {
			ce.MLPHist[b] = cur.MLPHist[b] - prev.MLPHist[b]
		}
		sum := ce.DepStall + ce.QueueStall + ce.BarrierStall
		for _, v := range ce.MemStall {
			sum += v
		}
		ce.Base = ce.Elapsed() - sum
		if c.err == nil {
			if err := ValidateRecordCore(&ce); err != nil {
				c.err = fmt.Errorf("telemetry: epoch %d: %w", c.epoch, err)
				return
			}
		}
		*prev = cur
		rec.Cores = append(rec.Cores, ce)
	}

	c.diffMem(&rec.Mem)
	c.diffEngines(rec)

	c.epoch++
	if err := c.sink.Emit(rec); err != nil && c.err == nil {
		c.err = err
	}
}

func (c *Collector) diffMem(m *MemEpoch) {
	cur := *c.src.Hier.Stats()
	prev := &c.prevMem
	for l := 0; l < memsys.NumLevels; l++ {
		for dt := range m.ServicedBy[l] {
			m.ServicedBy[l][dt] = cur.ServicedBy[l][dt] - prev.ServicedBy[l][dt]
		}
	}
	for dt := range m.LLCDemandMisses {
		m.LLCDemandMisses[dt] = cur.LLCDemandMissesByType[dt] - prev.LLCDemandMissesByType[dt]
		m.PrefetchIssued[dt] = cur.PrefetchIssuedByType[dt] - prev.PrefetchIssuedByType[dt]
		m.DemandMergedInFlight[dt] = cur.DemandMergedInFlight[dt] - prev.DemandMergedInFlight[dt]
	}
	m.PrefetchFilteredOnChip = cur.PrefetchFilteredOnChip - prev.PrefetchFilteredOnChip
	*prev = cur

	useful := c.src.Hier.PrefetchUseful()
	for dt := range m.PrefetchUseful {
		m.PrefetchUseful[dt] = useful[dt] - c.prevUseful[dt]
	}
	c.prevUseful = useful

	dcur := *c.src.Hier.MC().Stats()
	dprev := &c.prevDRAM
	m.DRAMReads = dcur.Reads - dprev.Reads
	m.DRAMWrites = dcur.Writes - dprev.Writes
	m.DRAMPrefetchReads = dcur.PrefetchReads - dprev.PrefetchReads
	m.DRAMRowHits = dcur.RowHits - dprev.RowHits
	m.DRAMRowMisses = dcur.RowMisses - dprev.RowMisses
	m.DRAMBusyCycles = dcur.BusyCycles - dprev.BusyCycles
	*dprev = dcur
}

func (c *Collector) diffEngines(rec *EpochRecord) {
	if c.src.Att == nil {
		return
	}
	c.engBuf = c.src.Att.Engines(c.engBuf[:0])
	rec.Engines = rec.Engines[:0]
	for i, cur := range c.engBuf {
		prev := c.prevEng[i]
		rec.Engines = append(rec.Engines, EngineEpoch{
			Core:     cur.Core,
			Name:     cur.Name,
			Issued:   cur.Issued - prev.Issued,
			Rejected: cur.Rejected - prev.Rejected,
		})
		c.prevEng[i] = cur
	}
	if c.src.Att.MPP != nil {
		cur := *c.src.Att.MPP.Stats()
		prev := &c.prevMPP
		*rec.MPP = MPPEpoch{
			Triggers:       cur.Triggers - prev.Triggers,
			AddrsGenerated: cur.AddrsGenerated - prev.AddrsGenerated,
			CopiedFromLLC:  cur.CopiedFromLLC - prev.CopiedFromLLC,
			IssuedToDRAM:   cur.IssuedToDRAM - prev.IssuedToDRAM,
			DroppedVABFull: cur.DroppedVABFull - prev.DroppedVABFull,
			DroppedFault:   cur.DroppedFault - prev.DroppedFault,
			MTLBMisses:     cur.MTLBMisses - prev.MTLBMisses,
		}
		*prev = cur
	}
}
