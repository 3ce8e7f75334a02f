package trace

import (
	"errors"
	"sync"
	"sync/atomic"

	"droplet/internal/mem"
)

// StreamConfig sizes the per-core bounded window of a Stream. The window
// (BatchEvents × Batches events per core) bounds peak trace memory: the
// producer blocks once the consumer falls a full window behind.
type StreamConfig struct {
	// BatchEvents is the number of events per hand-off batch (default
	// 4096, minimum 64). Larger batches amortize channel synchronization;
	// smaller ones tighten the memory bound.
	BatchEvents int
	// Batches is the number of in-flight batches per core (default 8,
	// minimum 4 — the recycling loop needs slack beyond the one batch the
	// producer fills and the one the consumer drains).
	Batches int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.BatchEvents == 0 {
		c.BatchEvents = 4096
	}
	if c.BatchEvents < 64 {
		c.BatchEvents = 64
	}
	if c.Batches == 0 {
		c.Batches = 8
	}
	if c.Batches < 4 {
		c.Batches = 4
	}
	return c
}

// WindowEvents returns the per-core window size in events.
func (c StreamConfig) WindowEvents() int {
	c = c.withDefaults()
	return c.BatchEvents * c.Batches
}

// errStreamStopped unwinds a producer goroutine after Stop; it never
// escapes produce.
var errStreamStopped = errors.New("trace: stream stopped")

// Stream is the pull-based trace generator: the same kernel execution
// that would fill a materialized *Trace, re-run once per simulated core
// by a producer goroutine that materializes only its own core's events
// into a bounded batch window. Peak memory is O(window × cores) instead
// of O(trace); the event sequence each consumer observes is identical to
// the materialized PerCore stream, including budget truncation (the
// accounting in sink.go is shared with materialize).
//
// Producers re-execute the full kernel rather than sharing one run
// because kernels emit core-major within barrier sections: a single
// producer with bounded per-core windows would deadlock (the simulator
// needs core N's events while the producer is blocked on core 0's full
// window). Re-running costs CPU proportional to the core count but keeps
// every producer independent — core i's window can only block core i's
// producer. Kernels are deterministic, so all runs emit identical
// streams and identical accounting.
type Stream struct {
	layout   *Layout
	numCores int
	budget   int64
	depSpan  int
	cfg      StreamConfig
	run      func(Sink)
	srcs     []*CoreSource

	started bool
	stopped atomic.Bool
	stop    sync.Once
	wg      sync.WaitGroup
}

// newStream wires a stream over the kernel re-run closure. run must be a
// deterministic function of its captured inputs: it is executed once per
// core, concurrently. depSpan is the kernel's bound on the distance from
// any event back to its producer (see DepSpan).
func newStream(layout *Layout, numCores int, budget int64, depSpan int, cfg StreamConfig, run func(Sink)) *Stream {
	s := &Stream{
		layout:   layout,
		numCores: numCores,
		budget:   budget,
		depSpan:  depSpan,
		cfg:      cfg.withDefaults(),
		run:      run,
		srcs:     make([]*CoreSource, numCores),
	}
	for c := range s.srcs {
		cs := &CoreSource{
			full: make(chan []Event, s.cfg.Batches),
			free: make(chan []Event, s.cfg.Batches),
		}
		for i := 0; i < s.cfg.Batches; i++ {
			cs.free <- make([]Event, 0, s.cfg.BatchEvents)
		}
		s.srcs[c] = cs
	}
	return s
}

// Layout returns the address-space layout the stream was generated
// against (built eagerly, before any producer runs).
func (s *Stream) Layout() *Layout { return s.layout }

// NumCores returns the number of per-core event sources.
func (s *Stream) NumCores() int { return s.numCores }

// DepSpan returns the kernel's bound on the producer-to-consumer
// distance (i - Dep) of any event in the stream: at least the DepSpan
// the materialized trace of the same kernel and inputs records. Each
// Stream constructor derives it from the kernel body before any producer
// runs, so the simulator can size every core's completion ring up front.
func (s *Stream) DepSpan() int { return s.depSpan }

// WindowEvents returns the per-core window bound in events.
func (s *Stream) WindowEvents() int { return s.cfg.WindowEvents() }

// Start launches the per-core producer goroutines. It is idempotent.
func (s *Stream) Start() {
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(s.numCores)
	for c := 0; c < s.numCores; c++ {
		go s.produce(c)
	}
}

// Source returns core c's event source. The stream must be Started
// before the source is drained.
func (s *Stream) Source(c int) *CoreSource { return s.srcs[c] }

// Stop tears down an abandoned stream: producers still blocked on a full
// window are unblocked by per-core drainers and exit at their next batch
// boundary. Stop blocks until every producer goroutine has exited, so
// after it returns all full channels are closed and further Next calls
// drain leftovers and hit EOF without blocking. Stop is idempotent and
// safe after normal completion (the drainers see closed channels and
// exit immediately). Consumers must not call Next concurrently with
// Stop: a concurrent un-recycled pull races the drainers for window
// buffers and can starve a parked producer.
func (s *Stream) Stop() {
	if !s.started {
		return
	}
	s.stop.Do(func() {
		s.stopped.Store(true)
		for _, cs := range s.srcs {
			go func(cs *CoreSource) {
				// Recycle so a producer blocked on the free channel also
				// wakes; free holds every buffer at most, so the send
				// never blocks.
				for b := range cs.full {
					cs.free <- b
				}
			}(cs)
		}
		s.wg.Wait()
	})
}

// Instructions returns the total instruction count across cores (the
// MPKI denominator, identical to Trace.Instructions). Valid only after
// every source has been drained to EOF; it returns 0 on a stopped or
// undrained stream.
func (s *Stream) Instructions() int64 { return s.srcs[0].insts }

// Truncated reports whether the event budget truncated the stream.
// Valid under the same conditions as Instructions.
func (s *Stream) Truncated() bool { return s.srcs[0].trunc }

// produce re-runs the kernel, materializing core c's events.
func (s *Stream) produce(c int) {
	cs := s.srcs[c]
	defer s.wg.Done()
	defer close(cs.full)
	defer func() {
		if r := recover(); r != nil && r != errStreamStopped { //nolint:errorlint // sentinel identity
			panic(r)
		}
	}()
	sk := &streamSink{
		a:      newAcct(s.numCores, s.budget),
		target: c,
		counts: make([]int32, s.numCores),
		out:    cs,
		stream: s,
		batch:  (<-cs.free)[:0],
	}
	s.run(sk)
	sk.finish()
	// Written before close(cs.full); the consumer observing EOF (the
	// closed-channel nil from Next) establishes the happens-before edge.
	cs.insts = sk.a.insts
	cs.trunc = sk.a.trunc
}

// CoreSource is one core's bounded event window. Batches flow producer →
// consumer on full and are recycled consumer → producer on free, so the
// steady-state pull path performs zero allocations.
type CoreSource struct {
	full chan []Event
	free chan []Event

	// insts/trunc are the producer's final accounting, published at EOF.
	insts int64
	trunc bool
}

// Next returns the next batch of events, recycling the previously
// returned batch. It blocks until the producer fills the window and
// returns nil at end of stream. Batches are never empty.
//
//droplet:hotpath
func (cs *CoreSource) Next(recycle []Event) []Event {
	if cap(recycle) != 0 {
		cs.free <- recycle[:0]
	}
	return <-cs.full
}

// streamSink is the per-producer Sink: full global accounting (shared
// acct semantics with materialize), but only the target core's events
// are materialized. counts mirrors the per-core event count of a
// materialized trace so returned dep indices are identical across all
// cores.
type streamSink struct {
	a      acct
	target int
	counts []int32
	out    *CoreSource
	stream *Stream
	batch  []Event
}

// Compute implements Sink.
func (sk *streamSink) Compute(c, n int) { sk.a.compute(c, n) }

// Load implements Sink.
func (sk *streamSink) Load(c int, addr mem.Addr, dt mem.DataType, dep int32) int32 {
	comp, ok := sk.a.event(c)
	if !ok {
		return NoDep
	}
	idx := sk.counts[c]
	sk.counts[c]++
	if c == sk.target {
		sk.emit(Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindLoad, DType: dt})
	}
	return idx
}

// Store implements Sink.
func (sk *streamSink) Store(c int, addr mem.Addr, dt mem.DataType, dep int32) {
	comp, ok := sk.a.event(c)
	if !ok {
		return
	}
	sk.counts[c]++
	if c == sk.target {
		sk.emit(Event{Addr: addr, Dep: dep, Comp: comp, Kind: KindStore, DType: dt})
	}
}

// Barrier implements Sink.
func (sk *streamSink) Barrier() {
	if !sk.a.barrier() {
		return
	}
	for c := range sk.counts {
		comp := sk.a.take(c)
		if c == sk.target {
			sk.emit(Event{Dep: NoDep, Comp: comp, Kind: KindBarrier})
		}
		sk.counts[c]++
	}
}

func (sk *streamSink) emit(ev Event) {
	sk.batch = append(sk.batch, ev)
	if len(sk.batch) == cap(sk.batch) {
		sk.flush()
	}
}

// flush hands the filled batch to the consumer and takes a recycled
// buffer. The stop flag is checked here — the only points a producer can
// block — so Stop unwinds the goroutine at the next batch boundary.
func (sk *streamSink) flush() {
	if sk.stream.stopped.Load() {
		panic(errStreamStopped)
	}
	sk.out.full <- sk.batch
	sk.batch = (<-sk.out.free)[:0]
}

// finish flushes the final partial batch without taking a new buffer.
func (sk *streamSink) finish() {
	if sk.stream.stopped.Load() {
		panic(errStreamStopped)
	}
	if len(sk.batch) > 0 {
		sk.out.full <- sk.batch
		sk.batch = nil
	}
}
