// Package droplet is a from-scratch Go reproduction of
//
//	Basak et al., "Analysis and Optimization of the Memory Hierarchy for
//	Graph Processing Workloads", HPCA 2019.
//
// It bundles a trace-driven multicore memory-hierarchy simulator (OOO
// cores, private L1/L2, shared inclusive LLC, DDR3-style memory
// controller), instrumented GAP graph kernels that generate data-type-
// tagged memory traces, the paper's DROPLET data-aware decoupled
// prefetcher, and every baseline prefetcher the paper evaluates.
//
// This package is the public facade over the internal implementation:
// build or generate a graph, pick a kernel and machine, then Simulate.
//
//	g, _ := droplet.Kron(14, 16, droplet.GraphOptions{Seed: 1, Symmetrize: true})
//	tr, _ := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{})
//	cfg := droplet.ExperimentMachine()
//	cfg.Prefetcher = droplet.DROPLET
//	res, _ := droplet.Simulate(ctx, tr, cfg)
//	fmt.Println(res.IPC())
//
// # Migration from Run
//
// Simulate(ctx, tr, cfg, opts...) supersedes Run(tr, cfg). Run remains
// as a thin wrapper — Run(tr, cfg) is exactly
// Simulate(context.Background(), tr, cfg) — so existing callers keep
// working unchanged. Simulate adds context cancellation and functional
// options:
//
//   - WithObserver(obs) attaches an epoch telemetry observer (see
//     NewCollector and the sink constructors) that receives per-epoch
//     cycle-stack, data-type, and MLP records;
//   - WithEpochCycles(n) sets the epoch granularity in core cycles;
//   - WithProgress(fn) installs a cheap per-epoch liveness callback.
//
// Observers never perturb the simulation: the executed step sequence —
// and therefore the returned Result — is bit-identical with telemetry
// on or off, and the nil-observer path stays allocation-free.
package droplet

import (
	"context"
	"fmt"
	"io"

	"droplet/internal/algo"
	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// Graph is a compressed-sparse-row graph (see internal/graph).
type Graph = graph.CSR

// Edge is one directed edge for FromEdges.
type Edge = graph.Edge

// GraphOptions configures the synthetic generators.
type GraphOptions = graph.GenOptions

// BuildOptions configures FromEdges. With Dedupe, a duplicated weighted
// edge keeps its smallest weight, so a symmetrized graph's two directions
// of an edge always agree.
type BuildOptions = graph.BuildOptions

// DegreeStats summarizes a graph's degree distribution.
type DegreeStats = graph.DegreeStats

// FromEdges builds a CSR graph from an edge list, in time linear in the
// edges plus a sort of each neighbor list; the sorts run on all
// GOMAXPROCS CPUs, and the graph does not depend on their number. Lists
// are sorted by neighbor ID (then weight). A symmetrized graph is its own
// transpose. A graph has at most 1<<30 vertices: a larger
// opt.NumVertices, or with NumVertices 0 a larger vertex ID, is an error.
func FromEdges(edges []Edge, opt BuildOptions) (*Graph, error) {
	return graph.FromEdges(edges, opt)
}

// Kron generates a GAP-style Kronecker graph (2^scale vertices,
// degree·2^scale sampled edges).
func Kron(scale, degree int, opt GraphOptions) (*Graph, error) {
	return graph.Kron(scale, degree, opt)
}

// Uniform generates a uniform-random graph.
func Uniform(scale, degree int, opt GraphOptions) (*Graph, error) {
	return graph.Uniform(scale, degree, opt)
}

// Grid generates a road-network-like 2D mesh.
func Grid(rows, cols int, opt GraphOptions) (*Graph, error) {
	return graph.Grid(rows, cols, opt)
}

// SocialNetwork generates an orkut/livejournal-style heavy-tailed graph.
func SocialNetwork(scale, degree int, opt GraphOptions) (*Graph, error) {
	return graph.SocialNetwork(scale, degree, opt)
}

// Stats computes degree statistics for g.
func Stats(g *Graph) DegreeStats { return graph.ComputeDegreeStats(g) }

// Kernel identifies one of the five GAP benchmark kernels (Table II).
type Kernel = workload.Algorithm

// The GAP kernels.
const (
	BC   = workload.BC
	BFS  = workload.BFS
	PR   = workload.PR
	SSSP = workload.SSSP
	CC   = workload.CC
)

// Kernels lists all five kernels in the paper's order.
var Kernels = workload.AllAlgorithms

// ParseKernel resolves a kernel name ("pr", "bfs", …), mirroring
// ParsePrefetcher. Matching is case-insensitive.
func ParseKernel(s string) (Kernel, error) { return workload.ParseAlgorithm(s) }

// Trace is a data-type-tagged multicore memory trace.
type Trace = trace.Trace

// TraceOptions configures trace generation.
type TraceOptions = trace.Options

// DepStats is the load-load dependency profile of a trace (Figs. 5/6).
type DepStats = trace.DepStats

// validateTraceInputs rejects the input classes every kernel shares:
// nil or empty graphs and malformed trace options.
func validateTraceInputs(g *Graph, opt TraceOptions) error {
	if g == nil {
		return fmt.Errorf("droplet: nil graph")
	}
	if g.NumVertices() == 0 {
		return fmt.Errorf("droplet: empty graph")
	}
	if opt.Cores < 0 {
		return fmt.Errorf("droplet: negative core count %d", opt.Cores)
	}
	if opt.MaxEvents < 0 {
		return fmt.Errorf("droplet: negative event cap %d", opt.MaxEvents)
	}
	if opt.PRIters < 0 {
		return fmt.Errorf("droplet: negative PageRank iteration count %d", opt.PRIters)
	}
	return nil
}

// checkReference validates a kernel's per-vertex reference result (the
// second value every instrumented kernel returns alongside its trace)
// instead of discarding it: a size mismatch means the kernel did not
// visit the whole graph and the trace cannot be trusted.
func checkReference(k Kernel, got, vertices int) error {
	if got != vertices {
		return fmt.Errorf("droplet: %v reference result covers %d of %d vertices", k, got, vertices)
	}
	return nil
}

// TraceOf runs kernel k over g while recording its memory accesses.
// SSSP requires a weighted graph; the other kernels ignore weights.
// The source vertex (for BFS/SSSP/BC) is the highest-degree vertex.
// Invalid inputs (nil/empty graph, negative options, unweighted SSSP)
// are reported as errors, and each kernel's reference result is checked
// for full-graph coverage before the trace is returned.
func TraceOf(k Kernel, g *Graph, opt TraceOptions) (*Trace, error) {
	if err := validateTraceInputs(g, opt); err != nil {
		return nil, err
	}
	src := graph.LargestComponentSource(g)
	n := g.NumVertices()
	switch k {
	case PR:
		tr, scores := trace.PageRank(g, g.Transpose(), opt)
		if err := checkReference(k, len(scores), n); err != nil {
			return nil, err
		}
		return tr, nil
	case BFS:
		tr, depths := trace.BFS(g, src, opt)
		if err := checkReference(k, len(depths), n); err != nil {
			return nil, err
		}
		return tr, nil
	case SSSP:
		if !g.Weighted() {
			return nil, fmt.Errorf("droplet: SSSP requires a weighted graph")
		}
		tr, dists := trace.SSSP(g, src, 0, opt)
		if err := checkReference(k, len(dists), n); err != nil {
			return nil, err
		}
		return tr, nil
	case CC:
		tr, labels := trace.CC(g, opt)
		if err := checkReference(k, len(labels), n); err != nil {
			return nil, err
		}
		return tr, nil
	case BC:
		tr, centrality := trace.BC(g, []uint32{src}, opt)
		if err := checkReference(k, len(centrality), n); err != nil {
			return nil, err
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("droplet: unknown kernel %v", k)
	}
}

// TraceOfDOBFS records GAP's direction-optimizing BFS (an extension
// beyond the five Table II kernels; see algo.DOBFS) with the given
// alpha/beta heuristics (0 = GAP defaults). It returns the trace and
// the reference per-vertex depths, with the same input validation and
// error reporting as TraceOf.
func TraceOfDOBFS(g *Graph, alpha, beta int, opt TraceOptions) (*Trace, []int64, error) {
	if err := validateTraceInputs(g, opt); err != nil {
		return nil, nil, err
	}
	if alpha < 0 || beta < 0 {
		return nil, nil, fmt.Errorf("droplet: negative DOBFS heuristics alpha=%d beta=%d", alpha, beta)
	}
	src := graph.LargestComponentSource(g)
	tr, depths := trace.DOBFS(g, g.Transpose(), src, alpha, beta, opt)
	if err := checkReference(BFS, len(depths), g.NumVertices()); err != nil {
		return nil, nil, err
	}
	return tr, depths, nil
}

// TraceStream is a pull-based trace generator: the same kernel events a
// materialized Trace would hold, produced into a bounded per-core window
// as the simulator consumes them. Peak memory is O(window), so graphs
// whose materialized trace would not fit in RAM still simulate.
type TraceStream = trace.Stream

// StreamConfig sizes the bounded per-core window of a TraceStream
// (zero values pick the defaults).
type StreamConfig = trace.StreamConfig

// StreamOf is the streaming counterpart of TraceOf: it returns a
// generator for kernel k over g instead of a materialized trace. The
// kernel runs lazily inside the stream's producers, so the per-vertex
// reference result is not available for validation — TraceOf and the
// equivalence tests cover that. Pass the stream to SimulateStream.
func StreamOf(k Kernel, g *Graph, opt TraceOptions, cfg StreamConfig) (*TraceStream, error) {
	if err := validateTraceInputs(g, opt); err != nil {
		return nil, err
	}
	src := graph.LargestComponentSource(g)
	switch k {
	case PR:
		return trace.StreamPageRank(g, g.Transpose(), opt, cfg), nil
	case BFS:
		return trace.StreamBFS(g, src, opt, cfg), nil
	case SSSP:
		if !g.Weighted() {
			return nil, fmt.Errorf("droplet: SSSP requires a weighted graph")
		}
		return trace.StreamSSSP(g, src, 0, opt, cfg), nil
	case CC:
		return trace.StreamCC(g, opt, cfg), nil
	case BC:
		return trace.StreamBC(g, []uint32{src}, opt, cfg), nil
	default:
		return nil, fmt.Errorf("droplet: unknown kernel %v", k)
	}
}

// AnalyzeDependencies computes the load-load dependency profile of a
// trace through a ROB window of the given size.
func AnalyzeDependencies(tr *Trace, robSize int) DepStats {
	return trace.AnalyzeDependencies(tr, robSize)
}

// ReadEdgeList parses a SNAP/GAP-style edge list ("u v [w]" per line)
// and builds it as FromEdges does, so with opt.NumVertices 0 a vertex ID
// of 1<<30 or more is an error.
func ReadEdgeList(r io.Reader, opt BuildOptions) (*Graph, error) {
	return graph.ReadEdgeList(r, opt)
}

// WriteEdgeList writes g in the format ReadEdgeList parses.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// PageRankOptions configures RunPageRank.
type PageRankOptions = algo.PageRankOptions

// Reference algorithm results (exact, unsimulated) for validation.
var (
	// RunBFS returns per-vertex depths.
	RunBFS = algo.BFS
	// RunPageRank returns per-vertex scores.
	RunPageRank = algo.PageRank
	// RunSSSP returns per-vertex distances.
	RunSSSP = algo.SSSP
	// RunCC returns per-vertex component labels.
	RunCC = algo.CC
	// RunBC returns per-vertex centrality contributions.
	RunBC = algo.BC
)

// MachineConfig describes a complete simulated machine.
type MachineConfig = sim.Config

// Result is the outcome of one simulation.
type Result = sim.Result

// Prefetcher selects one of the paper's six evaluated configurations.
type Prefetcher = core.PrefetcherKind

// The evaluated prefetcher configurations (Section VII-A), plus three
// extensions: the Table IV "when to prefetch" ablation, the Section
// VII-B adaptive data-awareness design, and the Pickle-style cross-core
// LLC engine.
const (
	NoPrefetch             = core.NoPrefetch
	GHB                    = core.GHB
	VLDP                   = core.VLDP
	Stream                 = core.Stream
	StreamMPP1             = core.StreamMPP1
	DROPLET                = core.DROPLET
	MonoDROPLETL1          = core.MonoDROPLETL1
	DROPLETDemandTriggered = core.DROPLETDemandTriggered
	DROPLETAdaptive        = core.DROPLETAdaptive
	Pickle                 = core.Pickle
)

// Prefetchers lists every configuration in presentation order.
var Prefetchers = core.AllKinds

// ParsePrefetcher resolves a configuration name ("droplet", "stream", …).
func ParsePrefetcher(s string) (Prefetcher, error) { return core.ParseKind(s) }

// Replacement selects a cache replacement policy. Set it per level on
// MachineConfig (cfg.LLC.Policy = droplet.ReplacementDRRIP); the LLC's is
// the lever graph workloads are most sensitive to (Jamet et al.).
type Replacement = cache.Kind

// The implemented replacement policies. LRU is the default; Random draws
// from a per-cache deterministic splitmix64 stream; SRRIP/BRRIP/DRRIP are
// the 2-bit RRIP family with set-dueling; SHiP predicts insert depth from
// per-line signatures.
const (
	ReplacementLRU    = cache.KindLRU
	ReplacementRandom = cache.KindRandom
	ReplacementSRRIP  = cache.KindSRRIP
	ReplacementBRRIP  = cache.KindBRRIP
	ReplacementDRRIP  = cache.KindDRRIP
	ReplacementSHiP   = cache.KindSHiP
)

// Replacements lists every policy in canonical order.
func Replacements() []Replacement { return cache.AllKinds() }

// ParseReplacement resolves a policy name ("lru", "random", "srrip",
// "brrip", "drrip", "ship"); the error lists the valid names.
func ParseReplacement(s string) (Replacement, error) { return cache.ParseReplacement(s) }

// PaperMachine returns the paper's Table I baseline (32KB L1 / 256KB L2 /
// 8MB LLC). Pair it with paper-sized graphs; for laptop-scale runs use
// ExperimentMachine.
func PaperMachine() MachineConfig { return sim.DefaultConfig() }

// ExperimentMachine returns the scaled machine the experiment harness
// uses at full scale (8KB L1 / 64KB L2 / 256KB LLC), preserving the
// paper's footprint-to-capacity ratios against ~100K-vertex graphs.
func ExperimentMachine() MachineConfig { return exp.Machine(workload.Full) }

// Observer receives per-epoch telemetry callbacks from the simulator
// (see internal/telemetry for the epoch model and the conservation
// invariant). NewCollector builds the standard implementation.
type Observer = telemetry.Observer

// TelemetrySink receives the collector's record stream.
type TelemetrySink = telemetry.Sink

// Collector is the standard Observer: it diffs the machine's counters
// at every epoch boundary and forwards conservation-checked records to
// a TelemetrySink.
type Collector = telemetry.Collector

// RunMeta labels a telemetry stream (benchmark/kernel/variant names).
type RunMeta = telemetry.RunMeta

// EpochRecord is one epoch of telemetry; CoreEpoch is one core's
// cycle-stack attribution within it.
type (
	EpochRecord = telemetry.EpochRecord
	CoreEpoch   = telemetry.CoreEpoch
)

// MemorySink retains the full record stream in memory (for tests and
// in-process analysis).
type MemorySink = telemetry.MemorySink

// NewCollector builds the standard telemetry observer writing to sink.
func NewCollector(sink TelemetrySink, meta RunMeta) *Collector {
	return telemetry.NewCollector(sink, meta)
}

// NewJSONLSink streams one JSON object per line (a meta line, then one
// record per epoch). The stream is byte-deterministic for a given
// simulation.
func NewJSONLSink(w io.Writer) TelemetrySink { return telemetry.NewJSONLSink(w) }

// NewCSVSink writes one row per (epoch, core) with the cycle stack,
// load mix, and MLP histogram.
func NewCSVSink(w io.Writer) TelemetrySink { return telemetry.NewCSVSink(w) }

// ValidateTelemetry checks a JSONL telemetry stream: schema shape,
// epoch sequencing, and the cycle-stack conservation invariant on every
// record. It returns the stream's meta and the number of epoch records.
func ValidateTelemetry(r io.Reader) (*RunMeta, int, error) { return telemetry.ValidateJSONL(r) }

// Option tunes Simulate.
type Option func(*sim.Options)

// WithObserver attaches a telemetry observer, pulled at every epoch
// boundary.
func WithObserver(obs Observer) Option {
	return func(o *sim.Options) { o.Observer = obs }
}

// WithEpochCycles sets the telemetry epoch granularity in core cycles
// (default sim.DefaultEpochCycles).
func WithEpochCycles(n int64) Option {
	return func(o *sim.Options) { o.EpochCycles = n }
}

// WithProgress installs a callback invoked at every epoch boundary with
// the elected core's clock — a cheap liveness signal for long runs.
func WithProgress(fn func(cycle int64)) Option {
	return func(o *sim.Options) { o.Progress = fn }
}

// Sampling configures SMARTS-style interval sampling: detailed
// measurement windows alternate with fast-forwarded execution, and the
// Result carries a SampleReport with the extrapolated cycle estimate.
type Sampling = sim.Sampling

// SampleReport is the sampling outcome attached to Result.Sampled.
type SampleReport = sim.SampleReport

// Warming selects how fast-forwarded epochs treat the memory hierarchy.
type Warming = sim.Warming

// The warming policies.
const (
	// WarmFunctional keeps caches functionally warm while fast-forwarding
	// (higher fidelity, less speedup).
	WarmFunctional = sim.WarmFunctional
	// WarmNone skips the hierarchy entirely while fast-forwarding and
	// relies on the per-interval warmup epochs (maximum speedup).
	WarmNone = sim.WarmNone
)

// ParseWarming resolves a warming policy name ("functional", "none").
func ParseWarming(s string) (Warming, error) { return sim.ParseWarming(s) }

// WithSampling runs the simulation under SMARTS interval sampling.
// Result.Cycles stays the raw (partially fast-forwarded) clock;
// Result.Sampled carries the extrapolated estimate.
func WithSampling(s Sampling) Option {
	return func(o *sim.Options) { o.Sampling = s }
}

// Simulate runs tr on a machine built from cfg, honoring ctx
// cancellation and the given options. With no options and a
// non-cancellable context it is identical to Run (same zero-overhead,
// allocation-free drive path); observers never change the executed step
// sequence, so the Result is bit-identical with telemetry on or off.
func Simulate(ctx context.Context, tr *Trace, cfg MachineConfig, opts ...Option) (*Result, error) {
	var o sim.Options
	for _, opt := range opts {
		opt(&o)
	}
	return sim.Simulate(ctx, tr, cfg, o)
}

// Run simulates tr on a machine built from cfg. It is the back-compat
// wrapper over Simulate: Run(tr, cfg) ==
// Simulate(context.Background(), tr, cfg).
func Run(tr *Trace, cfg MachineConfig) (*Result, error) {
	return Simulate(context.Background(), tr, cfg)
}

// SimulateStream is Simulate over a pull-based TraceStream: events are
// generated as the cores consume them, so peak memory is bounded by the
// stream's window instead of the trace length. For any kernel and graph
// the executed step sequence — and therefore the Result — is identical
// to Simulate over the materialized trace.
func SimulateStream(ctx context.Context, st *TraceStream, cfg MachineConfig, opts ...Option) (*Result, error) {
	var o sim.Options
	for _, opt := range opts {
		opt(&o)
	}
	return sim.SimulateStream(ctx, st, cfg, o)
}

// SimRequest is the canonical, versioned simulation request — the one
// value type that names a benchmark simulation everywhere: the
// experiment scheduler's result cache, telemetry file naming, and the
// droplet-serve HTTP API all key on SimRequest.Hash(). Zero fields mean
// defaults (quick scale, 4 cores, no prefetch, LRU everywhere); enum
// fields accept any spelling the Parse* helpers accept and normalize to
// the canonical one. Hash() is the SHA-256 of the canonical JSON
// encoding, stable across processes and hosts for one schema version.
type SimRequest = simreq.Request

// SimRequestSampling is the wire form of Sampling inside a SimRequest.
type SimRequestSampling = simreq.Sampling

// FieldError reports one invalid SimRequest field; FieldErrors is the
// complete list (the error type Normalize/Resolve/DecodeSimRequest
// return for content problems, and the shape the HTTP service renders
// into 400 bodies).
type (
	FieldError  = simreq.FieldError
	FieldErrors = simreq.FieldErrors
)

// SimRequestVersion is the current request schema version. Hashes are
// only comparable within one version; bumping it deliberately
// invalidates every cached result.
const SimRequestVersion = simreq.Version

// DecodeSimRequest reads one JSON SimRequest from r strictly — unknown
// fields are rejected, not ignored — and returns the normalized form.
func DecodeSimRequest(r io.Reader) (SimRequest, error) { return simreq.Decode(r) }

// DataType classifies accesses (structure / property / intermediate).
type DataType = mem.DataType

// The data types of Section II-A.
const (
	Intermediate = mem.Intermediate
	Structure    = mem.Structure
	Property     = mem.Property
)
