package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"droplet/internal/memsys"
)

// ValidateRecordCore checks the cycle-stack conservation invariant on a
// single per-core entry: every component non-negative and
// base + dep + queue + barrier + Σmem == elapsed.
func ValidateRecordCore(c *CoreEpoch) error {
	if c.EndCycle < c.StartCycle {
		return fmt.Errorf("core %d: end_cycle %d < start_cycle %d", c.Core, c.EndCycle, c.StartCycle)
	}
	sum := c.Base + c.DepStall + c.QueueStall + c.BarrierStall
	for _, v := range c.MemStall {
		sum += v
	}
	if sum != c.Elapsed() {
		return fmt.Errorf("core %d: cycle stack sums to %d, elapsed is %d", c.Core, sum, c.Elapsed())
	}
	for _, v := range [...]int64{c.Base, c.DepStall, c.QueueStall, c.BarrierStall} {
		if v < 0 {
			return fmt.Errorf("core %d: negative cycle-stack component (base=%d dep=%d queue=%d barrier=%d)",
				c.Core, c.Base, c.DepStall, c.QueueStall, c.BarrierStall)
		}
	}
	for l, v := range c.MemStall {
		if v < 0 {
			return fmt.Errorf("core %d: negative %s stall %d", c.Core, memsys.Level(l), v)
		}
	}
	return nil
}

// ValidateRecord checks conservation and sequencing on a full record.
func ValidateRecord(rec *EpochRecord, wantEpoch int64, cores int) error {
	if rec.Epoch != wantEpoch {
		return fmt.Errorf("epoch %d out of sequence (want %d)", rec.Epoch, wantEpoch)
	}
	if len(rec.Cores) != cores {
		return fmt.Errorf("epoch %d: %d core entries, machine has %d cores", rec.Epoch, len(rec.Cores), cores)
	}
	for i := range rec.Cores {
		if rec.Cores[i].Core != i {
			return fmt.Errorf("epoch %d: core entry %d labeled core %d", rec.Epoch, i, rec.Cores[i].Core)
		}
		if err := ValidateRecordCore(&rec.Cores[i]); err != nil {
			return fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
	}
	return nil
}

// ValidateJSONL reads a JSONL telemetry stream, checking the meta line
// and every epoch record (schema shape, sequence numbers, per-core
// conservation, contiguous per-core windows). It returns the parsed meta
// and the number of epoch records.
func ValidateJSONL(r io.Reader) (*RunMeta, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("empty stream: missing meta line")
	}
	var ml metaLine
	if err := json.Unmarshal(sc.Bytes(), &ml); err != nil {
		return nil, 0, fmt.Errorf("meta line: %w", err)
	}
	if ml.Meta == nil {
		return nil, 0, fmt.Errorf("first line is not a meta line")
	}
	meta := ml.Meta
	if meta.Cores < 1 || meta.Cores > memsys.MaxCores {
		// The bound also caps the per-core state sized from the count
		// below, which an untrusted meta line must not choose.
		return meta, 0, fmt.Errorf("meta: core count %d, want 1 to %d", meta.Cores, memsys.MaxCores)
	}
	if len(meta.Levels) != memsys.NumLevels {
		return meta, 0, fmt.Errorf("meta: %d levels, simulator has %d", len(meta.Levels), memsys.NumLevels)
	}

	prevEnd := make([]int64, meta.Cores)
	n := 0
	sawFinal := false
	for sc.Scan() {
		if sawFinal {
			return meta, n, fmt.Errorf("record after final epoch")
		}
		var rec EpochRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return meta, n, fmt.Errorf("record %d: %w", n, err)
		}
		if err := ValidateRecord(&rec, int64(n), meta.Cores); err != nil {
			return meta, n, err
		}
		for i := range rec.Cores {
			if rec.Cores[i].StartCycle != prevEnd[i] {
				return meta, n, fmt.Errorf("epoch %d: core %d window starts at %d, previous ended at %d",
					rec.Epoch, i, rec.Cores[i].StartCycle, prevEnd[i])
			}
			prevEnd[i] = rec.Cores[i].EndCycle
		}
		sawFinal = rec.Final
		n++
	}
	if err := sc.Err(); err != nil {
		return meta, n, err
	}
	if n > 0 && !sawFinal {
		return meta, n, fmt.Errorf("stream has %d records but no final epoch", n)
	}
	return meta, n, nil
}
