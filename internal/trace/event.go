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
	// compute instructions not stored as events (the MPKI denominator).
	Instructions int64
	// Truncated reports that the event budget was reached and the tail of
	// the execution is not in the trace (the simulated ROI ended).
	Truncated bool
	// DepSpan is the longest producer-to-consumer distance in the trace:
	// the maximum over every core's stream of i - Dep for each event i
	// that has a producer. The simulator sizes each core's completion
	// ring from it. Builder records it exactly; a hand-built trace must
	// set it to at least its longest link, or the core's ring guard
	// panics at the first dependency that reaches past it.
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

// Builder accumulates per-core event streams during kernel execution.
// It is the materialized Sink implementation; the budget/instruction
// bookkeeping lives in the shared acct so the streaming generator
// truncates identically (see sink.go).
//
// While a kernel emits, each core's events go into fixed-size chunks
// that are never regrown, so no event is copied until Build copies each
// once into one array of exactly the trace's length.
type Builder struct {
	layout  *Layout
	cores   []coreEvents
	a       acct
	depSpan int // longest i - Dep emitted so far (Trace.DepSpan)
}

// chunkEvents is the size of one emission chunk: 8 Ki events, 128 KiB.
const chunkEvents = 8 << 10

// coreEvents is one core's emitted events: the full chunks in emission
// order, the chunk being filled, and the number of events emitted so far
// (the next event's index).
type coreEvents struct {
	full [][]Event
	cur  []Event
	n    int32
}

// push appends ev to the core's stream and returns its index.
func (ce *coreEvents) push(ev Event) int32 {
	if len(ce.cur) == cap(ce.cur) {
		if ce.cur != nil {
			ce.full = append(ce.full, ce.cur)
		}
		ce.cur = make([]Event, 0, chunkEvents)
	}
	ce.cur = append(ce.cur, ev)
	ce.n++
	return ce.n - 1
}

// NewBuilder returns a builder for numCores streams with the given total
// event budget (<= 0 for unlimited).
func NewBuilder(layout *Layout, numCores int, budget int64) *Builder {
	return &Builder{
		layout: layout,
		cores:  make([]coreEvents, numCores),
		a:      newAcct(numCores, budget),
	}
}

// Done reports whether the event budget has been exhausted; kernels keep
// computing (so results stay exact) but stop emitting.
func (b *Builder) Done() bool { return b.a.trunc }

// Compute dispatches n compute instructions on core c.
func (b *Builder) Compute(c, n int) { b.a.compute(c, n) }

// Load emits a load on core c and returns its index in the core's stream
// for use as a later Dep. dep is the producer load's index or NoDep.
// After the budget is exhausted the load is counted but not stored, and
// NoDep is returned.
//
//droplet:addr addr byte
func (b *Builder) Load(c int, addr mem.Addr, dt mem.DataType, dep int32) int32 {
	comp, ok := b.a.event(c)
	if !ok {
		return NoDep
	}
	idx := b.cores[c].push(Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindLoad, DType: dt})
	b.link(idx, dep)
	return idx
}

// Store emits a store on core c. dep is the load producing the store
// address, or NoDep.
//
//droplet:addr addr byte
func (b *Builder) Store(c int, addr mem.Addr, dt mem.DataType, dep int32) {
	comp, ok := b.a.event(c)
	if !ok {
		return
	}
	b.link(b.cores[c].push(Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindStore, DType: dt}), dep)
}

// link records the distance from event idx back to its producer dep.
func (b *Builder) link(idx, dep int32) {
	if dep >= 0 && int(idx-dep) > b.depSpan {
		b.depSpan = int(idx - dep)
	}
}

// Barrier emits a synchronization point into every core's stream, or
// truncates under the all-or-nothing budget rule (see acct.barrier).
func (b *Builder) Barrier() {
	if !b.a.barrier() {
		return
	}
	for c := range b.cores {
		b.cores[c].push(Event{Dep: NoDep, Comp: b.a.take(c), Kind: KindBarrier})
	}
}

// Build finalizes the trace: it copies every core's chunks, in core
// order, into one array of exactly the trace's length, and each core's
// part of it becomes its stream (nil for a core with no events). A
// stream's capacity is clipped to its length, so appending to one core's
// stream reallocates instead of overwriting the next core's events. The
// Builder keeps its chunks, so Build may be called again.
func (b *Builder) Build() *Trace {
	var total int
	for c := range b.cores {
		total += int(b.cores[c].n)
	}
	all := make([]Event, total)
	perCore := make([][]Event, len(b.cores))
	lo := 0
	for c := range b.cores {
		ce := &b.cores[c]
		if ce.n == 0 {
			continue
		}
		hi := lo
		for _, ch := range ce.full {
			hi += copy(all[hi:], ch)
		}
		hi += copy(all[hi:], ce.cur)
		perCore[c] = all[lo:hi:hi]
		lo = hi
	}
	return &Trace{
		Layout:       b.layout,
		PerCore:      perCore,
		Instructions: b.a.insts,
		Truncated:    b.a.trunc,
		DepSpan:      b.depSpan,
	}
}
