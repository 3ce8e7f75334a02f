package exp

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"droplet/internal/core"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// Request names one schedulable unit of work: either a timing simulation
// (the default) or a trace-level dependency analysis (Analyze=true).
// The zero Kind/Variant is the no-prefetch baseline machine.
type Request struct {
	Bench   workload.Benchmark
	Kind    core.PrefetcherKind
	Variant Variant
	// Analyze requests trace.AnalyzeDependencies with a ROBSize-entry
	// window instead of a timing simulation.
	Analyze bool
	ROBSize int
}

// label is the human-readable name of the request used in progress
// lines and error wrapping (the historical cache-key format).
func (r Request) label() string {
	if r.Analyze {
		return fmt.Sprintf("analyze/%s/rob%d", r.Bench, r.ROBSize)
	}
	return fmtKey(r.Bench, r.Kind, r.Variant.Name)
}

// keyOf is the singleflight/result-cache identity of a request: the
// canonical simreq hash of its cell — exactly the request an HTTP client
// would send to reproduce it, so the scheduler cache, telemetry file
// names and the service share one keyspace — or an explicit analyze/
// key for dependency analyses, which have no wire shape. A cell that
// cannot canonicalize (e.g. an unknown dataset) gets a distinct
// invalid/ key so the real error surfaces at execution.
func (s *Suite) keyOf(r Request) string {
	if r.Analyze {
		return r.label()
	}
	h, err := s.cell(r).Request().Hash()
	if err != nil {
		return "invalid/" + r.label()
	}
	return h
}

// flight is one in-progress or completed request execution. Completed
// flights double as the suite's result cache. waiters counts callers
// blocked on the flight; when the last waiter of a cancellable flight
// abandons it, the flight's context is cancelled so the simulation
// stops instead of computing a result nobody wants.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	waiters int
	settled bool
	cancel  context.CancelFunc // nil for non-cancellable flights
}

// do returns the cached or freshly computed value for req, collapsing
// concurrent duplicates onto one execution.
func (s *Suite) do(req Request) (any, error) {
	return s.doReq(context.Background(), req)
}

// doReq is do with caller-controlled cancellation.
func (s *Suite) doReq(ctx context.Context, req Request) (any, error) {
	key := s.keyOf(req)
	return s.doKey(ctx, key, func(fctx context.Context) (any, error) {
		return s.execute(fctx, key, req)
	})
}

// doKey runs fn once per key, collapsing concurrent duplicates onto one
// execution and caching the success. ctx cancellation abandons the wait
// and, once no other waiter remains, the execution itself.
func (s *Suite) doKey(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		return s.wait(ctx, key, f)
	}
	f := &flight{done: make(chan struct{}), waiters: 1}
	fctx := context.Background()
	if ctx.Done() != nil {
		// Only cancellable callers pay for a cancellable execution: a
		// Background-context flight keeps the simulator's zero-overhead
		// drive loop.
		fctx, f.cancel = context.WithCancel(context.Background())
	}
	s.flights[key] = f
	s.mu.Unlock()
	go s.runFlight(fctx, f, key, fn)
	return s.wait(ctx, key, f)
}

// runFlight executes one flight and publishes its outcome. Failed
// flights are not cached: a later caller may retry (e.g. after a
// transient trace-generation failure or a cancelled execution).
func (s *Suite) runFlight(ctx context.Context, f *flight, key string, fn func(context.Context) (any, error)) {
	val, err := contained(ctx, key, fn)
	s.mu.Lock()
	f.val, f.err = val, err
	f.settled = true
	if err != nil {
		if cur, ok := s.flights[key]; ok && cur == f {
			delete(s.flights, key)
		}
	}
	close(f.done)
	s.mu.Unlock()
	if f.cancel != nil {
		f.cancel()
	}
}

// contained runs fn, turning a panic into its error. Several model
// invariants panic on purpose; contained here, one simulation that trips
// one fails with an error naming its key and the panic value (the stack
// goes to the standard logger) instead of killing every other
// simulation in the process.
func contained(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("exp: %s panicked: %v\n%s", key, r, debug.Stack())
			val, err = nil, fmt.Errorf("exp: %s panicked: %v", key, r)
		}
	}()
	return fn(ctx)
}

// wait blocks until f settles or ctx is cancelled, maintaining the
// flight's waiter count.
func (s *Suite) wait(ctx context.Context, key string, f *flight) (any, error) {
	if ctx.Done() == nil {
		<-f.done
		s.mu.Lock()
		f.waiters--
		s.mu.Unlock()
		return f.val, f.err
	}
	select {
	case <-f.done:
		s.mu.Lock()
		f.waiters--
		s.mu.Unlock()
		return f.val, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		if f.waiters == 0 && !f.settled && f.cancel != nil {
			// Last interested caller gone: stop the execution and make
			// the key retryable for the next request.
			if cur, ok := s.flights[key]; ok && cur == f {
				delete(s.flights, key)
			}
			f.cancel()
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// execute runs one request against its (shared, refcounted) trace.
func (s *Suite) execute(ctx context.Context, key string, req Request) (any, error) {
	label := req.label()
	if req.Analyze {
		tr, entry, err := s.acquireTrace(req.Bench, s.Base.Scale, s.Base.Cores)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", label, err)
		}
		defer s.releaseTrace(entry)
		st := trace.AnalyzeDependencies(tr, req.ROBSize)
		s.progress(fmt.Sprintf("analyzed %-25s rob=%d", req.Bench, req.ROBSize))
		return st, nil
	}
	return s.runSim(ctx, s.cell(req), req.Variant.Mutate, key, label)
}

// MachineOf lowers a resolved request onto the simulated machine and the
// options that drive it. Together with simreq.Request.Resolve it is the
// one path from a request — or from a front end's flags — to sim.Config
// and sim.Options: the scheduler, the service and the CLIs all take it.
func MachineOf(rv simreq.Resolved) (sim.Config, sim.Options) {
	cfg := Machine(rv.Scale)
	cfg.Cores = rv.Cores
	cfg.Prefetcher = rv.Prefetcher
	cfg.LLC.Policy = rv.Replacement
	cfg.L1.Policy = rv.ReplacementL1
	cfg.L2.Policy = rv.ReplacementL2
	return cfg, sim.Options{Sampling: rv.Sampling, EpochCycles: rv.EpochCycles}
}

// metaOf labels the epoch stream of a resolved request.
func metaOf(rv simreq.Resolved) telemetry.RunMeta {
	return telemetry.RunMeta{Benchmark: rv.Benchmark.String(), Kernel: rv.Benchmark.Algo.String(), Variant: rv.Variant}
}

// runSim executes one timing simulation against the (shared,
// refcounted) trace for rv, applying mutate — a named-variant machine
// mutation, nil for canonical requests — on top of the request machine.
func (s *Suite) runSim(ctx context.Context, rv simreq.Resolved, mutate func(*sim.Config), key, label string) (*sim.Result, error) {
	tr, entry, err := s.acquireTrace(rv.Benchmark, rv.Scale, rv.Cores)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", label, err)
	}
	defer s.releaseTrace(entry)

	cfg, opts := MachineOf(rv)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := s.simulate(ctx, tr, rv, cfg, opts, key)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", label, err)
	}
	s.progress(fmt.Sprintf("ran %-28s %12d cycles", label, r.Cycles))
	return r, nil
}

// simulate runs one timing simulation, streaming epoch telemetry to
// TelemetryDir (named by the request's canonical hash) when configured.
func (s *Suite) simulate(ctx context.Context, tr *trace.Trace, rv simreq.Resolved, cfg sim.Config, opts sim.Options, key string) (*sim.Result, error) {
	if s.TelemetryDir == "" {
		return sim.Simulate(ctx, tr, cfg, opts)
	}
	path := filepath.Join(s.TelemetryDir, key+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	opts.Observer = telemetry.NewCollector(telemetry.NewJSONLSink(f), metaOf(rv))
	r, simErr := sim.Simulate(ctx, tr, cfg, opts)
	if closeErr := f.Close(); simErr == nil {
		simErr = closeErr
	}
	if simErr != nil {
		// Drop the partial stream: failed flights are retried, and a
		// rerun recreates the file from scratch.
		os.Remove(path)
		return nil, simErr
	}
	return r, nil
}

// progress serializes delivery to the optional Progress sink.
func (s *Suite) progress(line string) {
	if s.Progress == nil {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.Progress(line)
}

// ----------------------------------------------------------------- traces

// traceEntry is one live (or generating) benchmark trace. refs counts
// pinned users; entries with refs==0 stay cached until a new benchmark
// needs their slot.
type traceEntry struct {
	refs  int
	ready chan struct{}
	tr    *trace.Trace
	err   error
}

// acquireTrace pins the trace for (b, sc, cores), generating it if
// absent (cores<=0 means simreq.DefaultCores, matching the generator's
// default). At most jobs() traces exist at once; when the table is full
// the caller blocks until an unpinned trace can be evicted. Every
// successful acquire must be paired with a releaseTrace of the returned
// entry.
func (s *Suite) acquireTrace(b workload.Benchmark, sc workload.Scale, cores int) (*trace.Trace, *traceEntry, error) {
	if cores <= 0 {
		cores = simreq.DefaultCores
	}
	key := fmt.Sprintf("%s@%v/c%d", b, sc, cores)
	limit := s.jobs()
	s.traceMu.Lock()
	for {
		if e, ok := s.traces[key]; ok {
			e.refs++
			s.traceMu.Unlock()
			<-e.ready
			if e.err != nil {
				s.releaseTrace(e)
				return nil, nil, e.err
			}
			return e.tr, e, nil
		}
		if len(s.traces) < limit || s.evictIdleLocked() {
			break
		}
		s.traceCond.Wait()
	}
	e := &traceEntry{refs: 1, ready: make(chan struct{})}
	s.traces[key] = e
	s.traceMu.Unlock()

	generate := s.generateTrace
	if generate == nil {
		generate = workload.GenerateTrace
	}
	defer func() {
		// A panicking generation still settles the entry, so waiters
		// and later acquires of the key never block on it.
		if r := recover(); r != nil {
			s.dropTrace(key, e, fmt.Errorf("exp: generating trace %s panicked: %v", key, r))
			panic(r)
		}
	}()
	tr, err := generate(b, sc, cores)
	if err != nil {
		s.dropTrace(key, e, err)
		return nil, nil, err
	}
	e.tr = tr
	close(e.ready)
	return tr, e, nil
}

// dropTrace settles an entry whose generation produced no trace: its
// waiters wake to err, and the entry leaves the table so the next
// acquire of the key generates afresh.
func (s *Suite) dropTrace(key string, e *traceEntry, err error) {
	e.err = err
	close(e.ready)
	s.traceMu.Lock()
	if cur, ok := s.traces[key]; ok && cur == e {
		delete(s.traces, key)
	}
	e.refs--
	s.traceCond.Broadcast()
	s.traceMu.Unlock()
}

// releaseTrace unpins an acquired entry; fully idle traces stay cached
// but become evictable when a new benchmark needs their slot.
func (s *Suite) releaseTrace(e *traceEntry) {
	s.traceMu.Lock()
	e.refs--
	if e.refs == 0 {
		s.traceCond.Broadcast()
	}
	s.traceMu.Unlock()
}

// evictIdleLocked drops one unpinned trace to free a slot. Callers hold
// traceMu.
func (s *Suite) evictIdleLocked() bool {
	//droplet:allow detmap -- which idle trace gets evicted only changes cache residency, never simulation results
	for key, e := range s.traces {
		if e.refs == 0 {
			delete(s.traces, key)
			return true
		}
	}
	return false
}

// -------------------------------------------------------------- scheduler

// grid runs one table: each benchmark's row of column requests (cols
// with Bench set to the row's benchmark) on the scheduler's pool, with
// the cells in rows[i][j] for benches[i] and cols[j]. A row pins its
// trace once, so distinct benchmarks fan out while a benchmark's cells
// run in column order on one worker over one trace, and every cell goes
// through the singleflight cache, so a cell another table already ran is
// a cache hit. Errors follow forEachBench: a row that sees the pool
// cancelled stops without an error of its own, so the reported error is
// the failing row's.
func grid[T any](s *Suite, benches []workload.Benchmark, cols []Request) ([][]T, error) {
	return forEachBench(s, benches, func(ctx context.Context, b workload.Benchmark) ([]T, error) {
		_, entry, err := s.acquireTrace(b, s.Base.Scale, s.Base.Cores)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", b, err)
		}
		defer s.releaseTrace(entry)
		row := make([]T, len(cols))
		for j, c := range cols {
			if ctx.Err() != nil {
				return nil, nil
			}
			c.Bench = b
			v, err := s.do(c)
			if err != nil {
				return nil, err
			}
			row[j] = v.(T)
		}
		return row, nil
	})
}

// forEachBench maps fn over benches on the scheduler's pool of
// min(jobs, len(benches)) workers, preserving input order in the
// returned slice. The first error cancels ctx, so work not yet started
// is skipped, and the earliest error in input order is returned, so the
// error a caller sees does not depend on completion timing. It runs
// every stage whose unit of work is a whole benchmark: grid's rows and
// reuse-distance profiling.
func forEachBench[T any](s *Suite, benches []workload.Benchmark, fn func(ctx context.Context, b workload.Benchmark) (T, error)) ([]T, error) {
	out := make([]T, len(benches))
	errs := make([]error, len(benches))
	workers := s.jobs()
	if workers > len(benches) {
		workers = len(benches)
	}
	if workers == 0 {
		return out, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type item struct {
		idx int
		b   workload.Benchmark
	}
	work := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				if ctx.Err() != nil {
					continue
				}
				v, err := fn(ctx, it.b)
				if err != nil {
					//droplet:allow synccapture -- per-index scatter write: each item owns disjoint errs slots and wg.Wait() orders them before any read
					errs[it.idx] = err
					cancel()
					continue
				}
				//droplet:allow synccapture -- per-index scatter write: each item owns disjoint out slots and wg.Wait() orders them before any read
				out[it.idx] = v
			}
		}()
	}
	for i, b := range benches {
		work <- item{i, b}
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
