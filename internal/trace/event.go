// Package trace turns the GAP kernels into data-type-tagged memory event
// streams. Each instrumented kernel runs the same logic as its reference
// twin in internal/algo while emitting, per simulated core, the loads and
// stores the compiled kernel would execute — tagged with the data type of
// the touched region and linked to the older load (if any) that produced
// the address. Those producer links are the load-load dependency chains of
// Observations #2/#3, and the type tags drive every data-aware experiment.
package trace

import "droplet/internal/mem"

// Kind discriminates events.
type Kind uint8

const (
	// KindLoad is a memory read preceded by Comp compute instructions.
	KindLoad Kind = iota
	// KindStore is a memory write preceded by Comp compute instructions.
	KindStore
	// KindBarrier is a global synchronization point (end of a parallel
	// region); every core's stream carries one at the same position.
	KindBarrier
)

// NoDep marks a load whose address comes from register-resident values.
const NoDep int32 = -1

// Event is one memory instruction (or barrier) in a core's stream.
// Comp counts the compute instructions dispatched since the previous
// event; they model the kernel's arithmetic without storing one event
// per instruction.
type Event struct {
	Addr  mem.Addr     //droplet:addr byte
	Dep   int32        // index of the producer load in this core's stream, or NoDep
	Comp  uint16       // compute instructions preceding this one
	Kind  Kind         //
	DType mem.DataType // data type of Addr's region
}

// Trace is a complete multi-core event trace plus the address-space layout
// it was generated against.
type Trace struct {
	Layout  *Layout
	PerCore [][]Event
	// Instructions is the total instruction count across cores, including
	// compute instructions not stored as events. A truncated trace counts
	// the kernel's instructions past the event budget too, so this is not
	// the MPKI denominator: MPKI divides by sim.Result.Instructions, the
	// instructions the simulated cores dispatched.
	Instructions int64
	// Truncated reports that the event budget was reached and the tail of
	// the execution is not in the trace (the simulated ROI ended).
	Truncated bool
	// DepSpan is the longest producer-to-consumer distance in the trace:
	// the maximum over every core's stream of i - Dep for each event i
	// that has a producer. The simulator sizes each core's completion
	// ring from it. A materialized kernel trace records it exactly; a
	// hand-built trace must set it to at least its longest link, or the
	// core's ring guard panics at the first dependency that reaches past
	// it.
	DepSpan int
}

// NumCores returns the number of per-core streams.
func (t *Trace) NumCores() int { return len(t.PerCore) }

// Source returns core c's stream as a one-batch event source. Every call
// returns a fresh source over the shared slice, so one Trace can feed
// any number of concurrent simulations.
func (t *Trace) Source(c int) *SliceSource {
	s := SliceSource(t.PerCore[c])
	return &s
}

// SliceSource serves a materialized event slice as a single batch: the
// first Next returns the whole slice (nil if it is empty) and every later
// call nil. It never writes to the slice or to a recycled batch.
type SliceSource []Event

// Next implements the core's event-source contract.
func (s *SliceSource) Next([]Event) []Event {
	evs := *s
	*s = nil
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// Events returns the total number of stored events.
func (t *Trace) Events() int64 {
	var n int64
	for _, s := range t.PerCore {
		n += int64(len(s))
	}
	return n
}
