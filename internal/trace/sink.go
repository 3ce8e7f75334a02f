package trace

import "droplet/internal/mem"

// Sink is the emission surface the instrumented kernels write through:
// the materializer's counting and filling passes and the streaming
// per-core generator all implement it, so one kernel body produces
// either a complete *Trace or a bounded-window event stream. Load
// returns the emitted event's index in core c's stream for use as a
// later Dep (NoDep once the budget is exhausted).
type Sink interface {
	// Compute dispatches n compute instructions on core c.
	Compute(c, n int)
	// Load emits a load on core c and returns its per-core stream index.
	Load(c int, addr mem.Addr, dt mem.DataType, dep int32) int32
	// Store emits a store on core c.
	Store(c int, addr mem.Addr, dt mem.DataType, dep int32)
	// Barrier emits a synchronization point into every core's stream.
	Barrier()
}

// acct is the budget and instruction accounting shared by every Sink
// implementation. Keeping it in one place is what makes truncation
// (Done) behave identically in materialized and streaming modes: the
// all-or-nothing Barrier overshoot rule, the take-before-reserve
// ordering on Load/Store, and the keep-counting-instructions-after-
// truncation behavior are encoded here exactly once.
type acct struct {
	pending []uint16 // compute instructions awaiting the next event, per core
	insts   int64
	budget  int64 // max stored events; <= 0 means unlimited
	stored  int64
	trunc   bool
}

func newAcct(numCores int, budget int64) acct {
	if numCores < 1 {
		panic("trace: need at least one core")
	}
	return acct{pending: make([]uint16, numCores), budget: budget}
}

// compute dispatches n compute instructions on core c. Instructions
// keep counting after truncation (results stay exact); only the pending
// accumulator stops, since no event will ever carry it.
func (a *acct) compute(c, n int) {
	a.insts += int64(n)
	if a.trunc {
		return
	}
	if s := int(a.pending[c]) + n; s < 0xffff {
		a.pending[c] = uint16(s)
	} else {
		a.pending[c] = 0xffff
	}
}

// take drains core c's pending compute count. It runs on every
// Load/Store, including the one that truncates and every one after it,
// whose compute no stored event carries.
func (a *acct) take(c int) uint16 {
	p := a.pending[c]
	a.pending[c] = 0
	return p
}

// event accounts one Load/Store: the instruction always counts, the
// pending compute is always drained, and ok reports whether the event
// may be stored under the budget.
func (a *acct) event(c int) (comp uint16, ok bool) {
	a.insts++
	comp = a.take(c)
	if a.trunc {
		return comp, false
	}
	if a.budget > 0 && a.stored >= a.budget {
		a.trunc = true
		return comp, false
	}
	a.stored++
	return comp, true
}

// barrier accounts a global barrier. A barrier is all-or-nothing: it
// needs one stored event per core, and if that would exceed the budget
// it triggers truncation instead of emitting — a partially-emitted
// barrier would deadlock the simulated cores, and quietly overshooting
// the cap made the stored-event count exceed the budget by up to
// cores-1 events. The pending compute is NOT drained on the truncating
// call: no event will ever carry it.
func (a *acct) barrier() bool {
	if a.trunc {
		return false
	}
	if n := int64(len(a.pending)); a.budget > 0 && a.stored+n > a.budget {
		a.trunc = true
		return false
	}
	a.stored += int64(len(a.pending))
	return true
}
