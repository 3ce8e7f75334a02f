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

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/sim"
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
// reproduces the historical "one trace alive" discipline). Experiments
// iterate benchmark-major and pre-warm the cache through the scheduler
// (see sched.go), then read results back in deterministic table order.
type Suite struct {
	Scale workload.Scale
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
	// EpochCycles sets the telemetry epoch granularity (0 means
	// sim.DefaultEpochCycles). Only consulted when TelemetryDir is set
	// or Sample is enabled.
	EpochCycles int64

	// Sample, when enabled, runs every timing simulation under SMARTS
	// interval sampling: Result.Cycles stays the raw (partially
	// fast-forwarded) clock, and Result.Sampled carries the extrapolated
	// cycle estimate. Dependency analyses are unaffected.
	Sample sim.Sampling

	// Replacement sets the LLC replacement policy of the baseline machine
	// for every simulation (zero value: LRU). It is a whole-suite setting,
	// not part of the per-request cache key — construct one Suite per
	// policy (as the CLIs do) rather than mutating it between requests.
	// The "repl" experiment sweeps policies via per-request Variants on
	// top of it: its column for this policy is the suite baseline, and
	// every other column (LRU included) is a repl-<policy> variant.
	Replacement cache.Kind
	// ReplacementL1 and ReplacementL2 set the private-cache replacement
	// policies the same way (zero value: LRU, the Table I baseline).
	ReplacementL1 cache.Kind
	ReplacementL2 cache.Kind

	// Prefetchers restricts the engine set the "pfx" comparison matrix
	// sweeps (nil means the fig11 kinds plus the Pickle engine). Like
	// Replacement it is a whole-suite setting, not part of the cache key.
	Prefetchers []core.PrefetcherKind

	mu      sync.Mutex
	flights map[string]*flight

	traceMu   sync.Mutex
	traceCond *sync.Cond
	traces    map[string]*traceEntry
}

// NewSuite returns an empty suite at the given scale with Jobs set to
// runtime.NumCPU().
func NewSuite(sc workload.Scale) *Suite {
	s := &Suite{
		Scale:   sc,
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

// benchmarks returns the suite's benchmark matrix.
func (s *Suite) benchmarks() []workload.Benchmark {
	if s.Benchmarks != nil {
		return s.Benchmarks
	}
	return workload.AllBenchmarks()
}

// Algorithms returns the algorithms present in the suite's matrix, in
// canonical order.
func (s *Suite) Algorithms() []workload.Algorithm {
	seen := make(map[workload.Algorithm]bool)
	for _, b := range s.benchmarks() {
		seen[b.Algo] = true
	}
	var out []workload.Algorithm
	for _, a := range workload.AllAlgorithms {
		if seen[a] {
			out = append(out, a)
		}
	}
	return out
}

// Baseline is shorthand for the no-prefetch baseline result.
func (s *Suite) Baseline(b workload.Benchmark) (*sim.Result, error) {
	return s.Result(b, core.NoPrefetch, Variant{})
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
