// Package workload is the benchmark registry: the five GAP algorithms of
// Table II, synthetic proxies for the five datasets of Table III, and
// trace generation for every algorithm × dataset pair, at two scales
// (Quick for tests/benches, Full for the experiment harness — see the
// substitution notes in DESIGN.md).
package workload

import (
	"fmt"
	"strings"
	"sync"

	"droplet/internal/graph"
	"droplet/internal/names"
	"droplet/internal/trace"
)

// Algorithm identifies a GAP kernel (Table II), in the paper's figure
// order.
type Algorithm int

// The five GAP kernels.
const (
	BC Algorithm = iota
	BFS
	PR
	SSSP
	CC
)

// AllAlgorithms lists the kernels in presentation order.
var AllAlgorithms = []Algorithm{BC, BFS, PR, SSSP, CC}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case BC:
		return "BC"
	case BFS:
		return "BFS"
	case PR:
		return "PR"
	case SSSP:
		return "SSSP"
	case CC:
		return "CC"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Description returns the Table II description.
func (a Algorithm) Description() string {
	switch a {
	case BC:
		return "Measure the centrality of a vertex (shortest paths through it)"
	case BFS:
		return "Traverse a graph level by level"
	case PR:
		return "Rank each vertex on the basis of the ranks of its neighbors"
	case SSSP:
		return "Find the minimum cost path from a source vertex to all others"
	case CC:
		return "Decompose the graph into a set of connected subgraphs"
	default:
		return ""
	}
}

// Weighted reports whether the kernel needs edge weights.
func (a Algorithm) Weighted() bool { return a == SSSP }

// Scale selects workload sizing. Quick keeps test/bench runtime low;
// Full is the experiment harness default; Huge is the streaming-only
// paper-scale tier whose materialized trace would not fit the CI memory
// ceiling. Quick and Full preserve the paper's footprint-to-capacity
// ratios against the matching Machine config; Huge runs against the
// unscaled Table I machine.
type Scale int

// Workload scales.
const (
	Quick Scale = iota
	Full
	Huge
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Full:
		return "full"
	case Huge:
		return "huge"
	default:
		return "quick"
	}
}

// AllScales lists the workload scales in size order.
var AllScales = []Scale{Quick, Full, Huge}

// ParseScale resolves a scale name ("quick", "full", "huge"); the error
// lists the valid names.
func ParseScale(name string) (Scale, error) {
	for _, s := range AllScales {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, names.Unknown("workload", "scale", name, names.Of(AllScales))
}

// MaxEvents returns the trace budget (the simulated ROI) for the scale.
func (s Scale) MaxEvents() int64 {
	switch s {
	case Full:
		return 12_000_000
	case Huge:
		return 60_000_000
	default:
		return 1_200_000
	}
}

// Dataset is one Table III graph proxy.
type Dataset struct {
	Name string
	// Kind describes the proxy (synthetic / social network / mesh).
	Kind string
	// Paper records the original dataset's vertex/edge counts for
	// documentation.
	Paper string
	// Build generates the proxy at the given scale.
	Build func(sc Scale, weighted bool) (*graph.CSR, error)
}

// Datasets lists the five Table III proxies in paper order.
var Datasets = []Dataset{
	{
		Name:  "kron",
		Kind:  "synthetic",
		Paper: "16.8M vertices, 260M edges",
		Build: func(sc Scale, weighted bool) (*graph.CSR, error) {
			scale := 14
			switch sc {
			case Full:
				scale = 17
			case Huge:
				scale = 21
			}
			return graph.Kron(scale, 16, graph.GenOptions{Seed: xk(1), Weighted: weighted, Symmetrize: true})
		},
	},
	{
		Name:  "urand",
		Kind:  "synthetic",
		Paper: "8.4M vertices, 134M edges",
		Build: func(sc Scale, weighted bool) (*graph.CSR, error) {
			scale := 14
			switch sc {
			case Full:
				scale = 17
			case Huge:
				scale = 21
			}
			return graph.Uniform(scale, 16, graph.GenOptions{Seed: xk(2), Weighted: weighted, Symmetrize: true})
		},
	},
	{
		Name:  "orkut",
		Kind:  "social network",
		Paper: "3M vertices, 117M edges",
		Build: func(sc Scale, weighted bool) (*graph.CSR, error) {
			scale := 13
			switch sc {
			case Full:
				scale = 16
			case Huge:
				scale = 20
			}
			return graph.SocialNetwork(scale, 32, graph.GenOptions{Seed: xk(3), Weighted: weighted, Symmetrize: true})
		},
	},
	{
		Name:  "livejournal",
		Kind:  "social network",
		Paper: "4.8M vertices, 68.5M edges",
		Build: func(sc Scale, weighted bool) (*graph.CSR, error) {
			scale := 14
			switch sc {
			case Full:
				scale = 17
			case Huge:
				scale = 21
			}
			return graph.SocialNetwork(scale, 14, graph.GenOptions{Seed: xk(4), Weighted: weighted, Symmetrize: true})
		},
	},
	{
		Name:  "road",
		Kind:  "mesh network",
		Paper: "23.9M vertices, 57.7M edges",
		Build: func(sc Scale, weighted bool) (*graph.CSR, error) {
			side := 128
			switch sc {
			case Full:
				side = 360
			case Huge:
				side = 1440
			}
			return graph.Grid(side, side, graph.GenOptions{Seed: xk(5), Weighted: weighted})
		},
	},
}

// xk derives distinct generator seeds.
func xk(i uint64) uint64 { return 0xd09_137 + i*0x9e3779b97f4a7c15 }

// DatasetByName finds a registered dataset; the error lists the valid
// names.
func DatasetByName(name string) (Dataset, error) {
	valid := make([]string, len(Datasets))
	for i, d := range Datasets {
		if d.Name == name {
			return d, nil
		}
		valid[i] = d.Name
	}
	return Dataset{}, names.Unknown("workload", "dataset", name, valid)
}

// Benchmark is one algorithm × dataset pair.
type Benchmark struct {
	Algo    Algorithm
	Dataset string
}

// String implements fmt.Stringer ("PR-orkut").
func (b Benchmark) String() string { return fmt.Sprintf("%v-%s", b.Algo, b.Dataset) }

// ParseAlgorithm resolves a kernel name (case-insensitive); the error
// lists the valid names.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range AllAlgorithms {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, names.Unknown("workload", "algorithm", name, names.Of(AllAlgorithms))
}

// ParseBenchmark resolves an "ALGO-dataset" pair as printed by
// Benchmark.String (e.g. "PR-orkut").
func ParseBenchmark(s string) (Benchmark, error) {
	algoName, dataset, ok := strings.Cut(s, "-")
	if !ok {
		return Benchmark{}, fmt.Errorf("workload: benchmark %q not of the form ALGO-dataset", s)
	}
	a, err := ParseAlgorithm(algoName)
	if err != nil {
		return Benchmark{}, err
	}
	if _, err := DatasetByName(dataset); err != nil {
		return Benchmark{}, err
	}
	return Benchmark{Algo: a, Dataset: dataset}, nil
}

// AllBenchmarks returns the full 5×5 matrix in paper order.
func AllBenchmarks() []Benchmark {
	var out []Benchmark
	for _, a := range AllAlgorithms {
		for _, d := range Datasets {
			out = append(out, Benchmark{Algo: a, Dataset: d.Name})
		}
	}
	return out
}

// graphEntry memoizes one build with per-key singleflight semantics: the
// map lock is held only for entry lookup, so concurrent requests for
// distinct graphs build in parallel while duplicates share one build.
type graphEntry struct {
	once sync.Once
	g    *graph.CSR
	err  error
}

// graphCache memoizes generated graphs across the many benchmark runs of
// the experiment harness. It is safe for concurrent use — the parallel
// experiment scheduler generates traces from many goroutines at once.
// Every registry dataset is symmetrized, so each is its own transpose
// (graph.CSR.Transpose returns the receiver) and no transpose is cached.
var graphCache = struct {
	sync.Mutex
	graphs map[string]*graphEntry
}{
	graphs: make(map[string]*graphEntry),
}

// Graph returns the (cached) proxy graph for the dataset at scale.
func Graph(dataset string, sc Scale, weighted bool) (*graph.CSR, error) {
	d, err := DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%v/%v", dataset, sc, weighted)
	graphCache.Lock()
	e, ok := graphCache.graphs[key]
	if !ok {
		e = &graphEntry{}
		graphCache.graphs[key] = e
	}
	graphCache.Unlock()
	e.once.Do(func() { e.g, e.err = d.Build(sc, weighted) })
	return e.g, e.err
}

// traceInputs resolves the shared inputs of GenerateTrace and
// GenerateStream: the (cached) graph, the kernel options, and the BFS/
// SSSP/BC source selection.
func traceInputs(b Benchmark, sc Scale, cores int) (*graph.CSR, trace.Options, uint32, error) {
	if cores == 0 {
		cores = 4
	}
	g, err := Graph(b.Dataset, sc, b.Algo.Weighted())
	if err != nil {
		return nil, trace.Options{}, 0, err
	}
	opt := trace.Options{Cores: cores, MaxEvents: sc.MaxEvents(), PRIters: 2}
	return g, opt, graph.LargestComponentSource(g), nil
}

// bcSources picks the BC source set (the primary source plus a mid-range
// second root on non-trivial graphs).
func bcSources(g *graph.CSR, src uint32) []uint32 {
	sources := []uint32{src}
	if n := g.NumVertices(); n > 1 {
		sources = append(sources, uint32(n/2))
	}
	return sources
}

// GenerateTrace builds the multi-core memory trace for benchmark b at the
// given scale. Cores defaults to 4 when zero.
func GenerateTrace(b Benchmark, sc Scale, cores int) (*trace.Trace, error) {
	g, opt, src, err := traceInputs(b, sc, cores)
	if err != nil {
		return nil, err
	}
	switch b.Algo {
	case PR:
		tr, _ := trace.PageRank(g, g.Transpose(), opt)
		return tr, nil
	case BFS:
		tr, _ := trace.BFS(g, src, opt)
		return tr, nil
	case SSSP:
		tr, _ := trace.SSSP(g, src, 0, opt)
		return tr, nil
	case CC:
		tr, _ := trace.CC(g, opt)
		return tr, nil
	case BC:
		tr, _ := trace.BC(g, bcSources(g, src), opt)
		return tr, nil
	default:
		return nil, fmt.Errorf("workload: unknown algorithm %v", b.Algo)
	}
}

// GenerateStream builds the pull-based trace generator for benchmark b at
// the given scale — the same kernel, graph, and options as GenerateTrace,
// emitted through the bounded per-core window instead of materialized.
// Cores defaults to 4 when zero; cfg zero-values pick the default window.
func GenerateStream(b Benchmark, sc Scale, cores int, cfg trace.StreamConfig) (*trace.Stream, error) {
	g, opt, src, err := traceInputs(b, sc, cores)
	if err != nil {
		return nil, err
	}
	switch b.Algo {
	case PR:
		return trace.StreamPageRank(g, g.Transpose(), opt, cfg), nil
	case BFS:
		return trace.StreamBFS(g, src, opt, cfg), nil
	case SSSP:
		return trace.StreamSSSP(g, src, 0, opt, cfg), nil
	case CC:
		return trace.StreamCC(g, opt, cfg), nil
	case BC:
		return trace.StreamBC(g, bcSources(g, src), opt, cfg), nil
	default:
		return nil, fmt.Errorf("workload: unknown algorithm %v", b.Algo)
	}
}
