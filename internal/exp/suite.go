// Package exp reproduces every table and figure of the paper's
// evaluation. Each experiment function takes a Suite (a cache of
// simulation results keyed by benchmark × machine variant) and returns
// structured rows plus a formatted table, so the same code backs the
// benchmark harness, the CLI, and EXPERIMENTS.md.
package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"droplet/internal/core"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// Variant names a machine modification applied on top of the experiment
// baseline (empty for the baseline itself).
type Variant struct {
	Name string
	// Mutate adjusts the machine configuration.
	Mutate func(*sim.Config)
}

// Machine returns the experiment machine for the scale: the Table I
// baseline with caches scaled to preserve the paper's
// footprint-to-capacity ratios against the scale's datasets (DESIGN.md
// documents the mapping).
func Machine(sc workload.Scale) sim.Config {
	cfg := sim.DefaultConfig()
	switch sc {
	case workload.Huge:
		// Paper-scale graphs run against the unscaled Table I machine.
	case workload.Full:
		cfg.L1.SizeBytes = 8 << 10
		cfg.L2.SizeBytes = 64 << 10
		cfg.LLC.SizeBytes = 256 << 10
	default: // Quick
		cfg.L1.SizeBytes = 2 << 10
		cfg.L2.SizeBytes = 16 << 10
		cfg.LLC.SizeBytes = 32 << 10
	}
	return cfg
}

// Suite lazily runs and caches simulations. All methods are safe for
// concurrent use: duplicate requests for one (benchmark, prefetcher,
// variant) key share a single simulation via per-key singleflight, and at
// most Jobs benchmark traces are kept alive at once, so peak memory
// scales with the parallelism rather than the matrix size (Jobs=1
// reproduces the historical "one trace alive" discipline). Every
// simulation and analysis experiment runs its table as one benchmarks ×
// columns grid on the scheduler (see sched.go), so results come back in
// deterministic table order however the cells interleaved.
type Suite struct {
	// Base is the machine every cell runs on: scale, cores, replacement
	// policies, epoch granularity and sampling. A cell is Base with the
	// cell's own benchmark, prefetcher and variant in place of Base's.
	// Base is part of every cell's cache key, so set it before the first
	// table and construct one Suite per machine (as the CLIs do) rather
	// than mutating it between requests.
	Base simreq.Resolved
	// Benchmarks restricts the benchmark matrix (nil means all 25 pairs);
	// the CLI uses it for filtering and tests for speed.
	Benchmarks []workload.Benchmark
	// Jobs bounds the scheduler's worker count and the number of live
	// traces. Zero or negative means runtime.NumCPU().
	Jobs int
	// Progress, when set, receives a line per completed simulation. Calls
	// are serialized by the suite, so the sink needs no locking of its
	// own; under parallelism lines arrive in completion order.
	Progress   func(string)
	progressMu sync.Mutex

	// TelemetryDir, when non-empty, streams epoch telemetry for every
	// timing simulation to <dir>/<canonical request hash>.jsonl — the
	// same simreq.Request.Hash() the HTTP service keys results on. Files
	// are written by the single flight that executes each key, so their
	// contents are byte-identical regardless of Jobs.
	TelemetryDir string

	// Prefetchers restricts the engine set the "pfx" comparison matrix
	// sweeps (nil means the fig11 kinds plus the Pickle engine). It
	// selects columns, so it is not part of any cell's cache key.
	Prefetchers []core.PrefetcherKind

	mu      sync.Mutex
	flights map[string]*flight

	traceMu   sync.Mutex
	traceCond *sync.Cond
	traces    map[string]*traceEntry
	// generateTrace builds a benchmark trace (nil: workload.GenerateTrace);
	// tests swap in failing generators.
	generateTrace func(workload.Benchmark, workload.Scale, int) (*trace.Trace, error)
}

// NewSuite returns an empty suite whose Base is the default machine at
// the given scale, with Jobs set to runtime.NumCPU().
func NewSuite(sc workload.Scale) *Suite {
	s := &Suite{
		Base:    simreq.Resolved{Scale: sc, Cores: simreq.DefaultCores},
		Jobs:    runtime.NumCPU(),
		flights: make(map[string]*flight),
		traces:  make(map[string]*traceEntry),
	}
	s.traceCond = sync.NewCond(&s.traceMu)
	return s
}

// jobs resolves the configured parallelism to a positive worker count.
func (s *Suite) jobs() int {
	if s.Jobs > 0 {
		return s.Jobs
	}
	return runtime.NumCPU()
}

// Result runs (or returns the cached result of) benchmark b with
// prefetcher kind on the baseline machine modified by variant.
func (s *Suite) Result(b workload.Benchmark, kind core.PrefetcherKind, v Variant) (*sim.Result, error) {
	val, err := s.do(Request{Bench: b, Kind: kind, Variant: v})
	if err != nil {
		return nil, err
	}
	return val.(*sim.Result), nil
}

// cell is the resolved request of one table cell: Base with r's
// benchmark, prefetcher and variant.
func (s *Suite) cell(r Request) simreq.Resolved {
	rv := s.Base
	rv.Benchmark = r.Bench
	rv.Prefetcher = r.Kind
	rv.Variant = r.Variant.Name
	return rv
}

// benchmarks returns the suite's benchmark matrix.
func (s *Suite) benchmarks() []workload.Benchmark {
	if s.Benchmarks != nil {
		return s.Benchmarks
	}
	return workload.AllBenchmarks()
}

// Analyze returns trace-level dependency statistics for b (no timing
// simulation; used by Figs. 5 and 6). It rides the same scheduler as
// Result, so dependency analyses overlap with timing simulations.
func (s *Suite) Analyze(b workload.Benchmark, robSize int) (trace.DepStats, error) {
	val, err := s.do(Request{Bench: b, Analyze: true, ROBSize: robSize})
	if err != nil {
		return trace.DepStats{}, err
	}
	return val.(trace.DepStats), nil
}

// geomean returns the geometric mean of xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logsum float64
	for _, x := range xs {
		logsum += math.Log(x)
	}
	return math.Exp(logsum / float64(len(xs)))
}

// fmtKey builds the canonical cache key for a request.
func fmtKey(b workload.Benchmark, kind core.PrefetcherKind, variant string) string {
	return fmt.Sprintf("%s/%v/%s", b, kind, variant)
}
