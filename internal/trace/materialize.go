package trace

import (
	"errors"
	"fmt"

	"droplet/internal/mem"
)

// errBudgetReached unwinds the counting pass at the first event the
// budget refuses; it never escapes countEvents.
var errBudgetReached = errors.New("trace: event budget reached")

// materialize builds a kernel's trace in place by running its emit body
// twice. The first run counts each core's events (countEvents). One
// array of exactly their sum is then allocated, core c's stream becomes
// its window of it (all[lo:lo:hi], so an append to one core's stream
// reallocates instead of overwriting the next core's events; a core with
// no events keeps a nil stream), and the second run writes every event
// straight into its core's window (fillSink). The second run goes to the
// kernel's end, so the results it returns are exact and Instructions
// counts past the budget. Emit bodies are deterministic, so both runs
// emit the same events; a core whose two runs disagree panics.
func materialize[R any](lay *Layout, cores int, budget int64, emit func(Sink) R) (*Trace, R) {
	counts := countEvents(cores, budget, emit)
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	all := make([]Event, total)
	f := &fillSink{a: newAcct(cores, budget), streams: make([][]Event, cores)}
	lo := 0
	for c, n := range counts {
		if n > 0 {
			hi := lo + int(n)
			f.streams[c] = all[lo:lo:hi]
			lo = hi
		}
	}
	res := emit(f)
	for c, n := range counts {
		if got := len(f.streams[c]); got != int(n) {
			panic(fmt.Sprintf("trace: core %d emitted %d events on its second run, %d on its first", c, got, n))
		}
	}
	return &Trace{
		Layout:       lay,
		PerCore:      f.streams,
		Instructions: f.a.insts,
		Truncated:    f.a.trunc,
		DepSpan:      f.depSpan,
	}, res
}

// countEvents is materialize's first pass: it runs emit through a
// countSink and returns each core's event count. The first event the
// budget refuses ends the run, since no later event is stored; with no
// budget the kernel runs to its end.
func countEvents[R any](cores int, budget int64, emit func(Sink) R) (counts []int32) {
	k := &countSink{a: newAcct(cores, budget), counts: make([]int32, cores)}
	counts = k.counts
	defer func() {
		if r := recover(); r != nil && r != errBudgetReached { //nolint:errorlint // sentinel identity
			panic(r)
		}
	}()
	emit(k)
	return counts
}

// countSink is the counting pass's Sink: the shared acct decides which
// events are stored and counts holds how many each core has. No event
// is kept, so compute instructions are not tracked.
type countSink struct {
	a      acct
	counts []int32
}

// Compute implements Sink.
func (k *countSink) Compute(int, int) {}

// Load implements Sink, returning the index fillSink will give the load.
func (k *countSink) Load(c int, _ mem.Addr, _ mem.DataType, _ int32) int32 {
	k.event(c)
	return k.counts[c] - 1
}

// Store implements Sink.
func (k *countSink) Store(c int, _ mem.Addr, _ mem.DataType, _ int32) { k.event(c) }

// Barrier implements Sink.
func (k *countSink) Barrier() {
	if !k.a.barrier() {
		panic(errBudgetReached)
	}
	for c := range k.counts {
		k.counts[c]++
	}
}

// event counts one load or store on core c, or ends the pass if the
// budget refuses it.
func (k *countSink) event(c int) {
	if _, ok := k.a.event(c); !ok {
		panic(errBudgetReached)
	}
	k.counts[c]++
}

// fillSink is the filling pass's Sink: each core's events go straight
// into its window of the trace's array, whose capacity is the count the
// first pass took.
type fillSink struct {
	a       acct
	streams [][]Event
	depSpan int // longest i - Dep emitted so far (Trace.DepSpan)
}

// Compute implements Sink.
func (f *fillSink) Compute(c, n int) { f.a.compute(c, n) }

// Load emits a load on core c and returns its index in the core's stream
// for use as a later Dep. dep is the producer load's index or NoDep.
// After the budget is exhausted the load is counted but not stored, and
// NoDep is returned.
//
//droplet:addr addr byte
func (f *fillSink) Load(c int, addr mem.Addr, dt mem.DataType, dep int32) int32 {
	comp, ok := f.a.event(c)
	if !ok {
		return NoDep
	}
	idx := f.push(c, Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindLoad, DType: dt})
	f.link(idx, dep)
	return idx
}

// Store emits a store on core c. dep is the load producing the store
// address, or NoDep.
//
//droplet:addr addr byte
func (f *fillSink) Store(c int, addr mem.Addr, dt mem.DataType, dep int32) {
	comp, ok := f.a.event(c)
	if !ok {
		return
	}
	f.link(f.push(c, Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindStore, DType: dt}), dep)
}

// Barrier emits a synchronization point into every core's stream, or
// truncates under the all-or-nothing budget rule (see acct.barrier).
func (f *fillSink) Barrier() {
	if !f.a.barrier() {
		return
	}
	for c := range f.streams {
		f.push(c, Event{Dep: NoDep, Comp: f.a.take(c), Kind: KindBarrier})
	}
}

// push appends ev to core c's window and returns its index. An event
// beyond the window's capacity reallocates the stream instead of
// overwriting the next core's, and materialize's length check then
// panics.
func (f *fillSink) push(c int, ev Event) int32 {
	f.streams[c] = append(f.streams[c], ev)
	return int32(len(f.streams[c]) - 1)
}

// link records the distance from event idx back to its producer dep.
func (f *fillSink) link(idx, dep int32) {
	if dep >= 0 && int(idx-dep) > f.depSpan {
		f.depSpan = int(idx - dep)
	}
}
