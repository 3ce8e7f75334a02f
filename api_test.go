package droplet_test

import (
	"context"
	"math"
	"testing"

	"droplet"
)

// TestPublicAPIEndToEnd drives the full public facade: generate, trace,
// simulate, inspect.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := droplet.Kron(10, 8, droplet.GraphOptions{Seed: 5, Symmetrize: true})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	st := droplet.Stats(g)
	if st.Vertices != 1024 || st.Edges == 0 {
		t.Fatalf("stats = %+v", st)
	}

	tr, err := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: 4, PRIters: 2})
	if err != nil {
		t.Fatalf("TraceOf: %v", err)
	}
	if tr.Events() == 0 {
		t.Fatal("empty trace")
	}

	cfg := droplet.ExperimentMachine()
	cfg.L1.SizeBytes = 1 << 10
	cfg.L2.SizeBytes = 4 << 10
	cfg.LLC.SizeBytes = 8 << 10
	cfg.Prefetcher = droplet.DROPLET
	res, err := droplet.Run(tr, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cycles <= 0 || res.IPC() <= 0 {
		t.Fatalf("result = %+v", res)
	}

	dep := droplet.AnalyzeDependencies(tr, 128)
	if dep.TotalLoads == 0 {
		t.Fatal("no loads analyzed")
	}
}

func TestPublicAPIKernelsMatchReferences(t *testing.T) {
	g, err := droplet.Uniform(9, 8, droplet.GraphOptions{Seed: 3, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	for _, k := range droplet.Kernels {
		tr, err := droplet.TraceOf(k, g, droplet.TraceOptions{Cores: 2})
		if err != nil {
			t.Fatalf("TraceOf(%v): %v", k, err)
		}
		if tr.Events() == 0 {
			t.Errorf("%v: empty trace", k)
		}
	}
	// Reference helpers are exported and usable.
	depth := droplet.RunBFS(g, 0)
	if len(depth) != g.NumVertices() {
		t.Error("RunBFS result size")
	}
	comp := droplet.RunCC(g)
	if len(comp) != g.NumVertices() {
		t.Error("RunCC result size")
	}
}

func TestPublicAPISSSPRequiresWeights(t *testing.T) {
	g, err := droplet.Grid(8, 8, droplet.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := droplet.TraceOf(droplet.SSSP, g, droplet.TraceOptions{}); err == nil {
		t.Error("SSSP on unweighted graph should error")
	}
}

func TestPublicAPIPrefetcherParsing(t *testing.T) {
	for _, p := range droplet.Prefetchers {
		got, err := droplet.ParsePrefetcher(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePrefetcher(%v) = %v, %v", p, got, err)
		}
	}
}

func TestPublicAPIKernelParsing(t *testing.T) {
	for _, k := range droplet.Kernels {
		got, err := droplet.ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKernel(%v) = %v, %v", k, got, err)
		}
	}
	if _, err := droplet.ParseKernel("notakernel"); err == nil {
		t.Error("ParseKernel accepted an unknown name")
	}
}

func TestPublicAPITraceOfValidation(t *testing.T) {
	g, err := droplet.Grid(4, 4, droplet.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := droplet.TraceOf(droplet.PR, nil, droplet.TraceOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: -1}); err == nil {
		t.Error("negative core count accepted")
	}
	if _, err := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{MaxEvents: -1}); err == nil {
		t.Error("negative event cap accepted")
	}
	if _, _, err := droplet.TraceOfDOBFS(nil, 0, 0, droplet.TraceOptions{}); err == nil {
		t.Error("TraceOfDOBFS accepted a nil graph")
	}
	if _, _, err := droplet.TraceOfDOBFS(g, -1, 0, droplet.TraceOptions{}); err == nil {
		t.Error("TraceOfDOBFS accepted negative alpha")
	}
	if tr, depths, err := droplet.TraceOfDOBFS(g, 0, 0, droplet.TraceOptions{Cores: 2}); err != nil || tr == nil || len(depths) != g.NumVertices() {
		t.Errorf("TraceOfDOBFS = (%v, %d depths, %v)", tr, len(depths), err)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	g, err := droplet.Kron(9, 8, droplet.GraphOptions{Seed: 5, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: 4, PRIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := droplet.ExperimentMachine()
	cfg.L1.SizeBytes = 1 << 10
	cfg.L2.SizeBytes = 4 << 10
	cfg.LLC.SizeBytes = 8 << 10
	cfg.Prefetcher = droplet.DROPLET

	plain, err := droplet.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sink := &droplet.MemorySink{}
	var ticks int
	res, err := droplet.Simulate(context.Background(), tr, cfg,
		droplet.WithObserver(droplet.NewCollector(sink, droplet.RunMeta{Benchmark: "kron9", Kernel: "pr"})),
		droplet.WithEpochCycles(5000),
		droplet.WithProgress(func(int64) { ticks++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plain.Cycles || res.Instructions != plain.Instructions {
		t.Errorf("telemetry changed the result: (%d, %d) vs (%d, %d)",
			res.Cycles, res.Instructions, plain.Cycles, plain.Instructions)
	}
	if len(sink.Records) == 0 || ticks == 0 {
		t.Errorf("no telemetry: %d records, %d progress ticks", len(sink.Records), ticks)
	}
	if sink.Meta.Prefetcher != "droplet" {
		t.Errorf("meta prefetcher = %q", sink.Meta.Prefetcher)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := droplet.Simulate(ctx, tr, cfg); err != context.Canceled {
		t.Errorf("cancelled Simulate returned %v", err)
	}
}

func TestPublicAPIMachines(t *testing.T) {
	paper := droplet.PaperMachine()
	if paper.LLC.SizeBytes != 8<<20 {
		t.Errorf("paper LLC = %d, want 8MB", paper.LLC.SizeBytes)
	}
	expm := droplet.ExperimentMachine()
	if expm.LLC.SizeBytes != 256<<10 {
		t.Errorf("experiment LLC = %d, want 256KB", expm.LLC.SizeBytes)
	}
	if paper.CPU.ROBSize != expm.CPU.ROBSize {
		t.Error("core config should match between machines")
	}
}

func TestPublicAPIFromEdges(t *testing.T) {
	g, err := droplet.FromEdges([]droplet.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, droplet.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 4 {
		t.Errorf("graph = %v", g)
	}
	pr := droplet.RunPageRank(g, droplet.PageRankOptions{})
	var sum float64
	for _, s := range pr {
		sum += s
	}
	if math.Abs(sum-1) > 0.1 {
		t.Errorf("pagerank mass = %v", sum)
	}
}

// TestPublicAPIInvalidMachineIsAnError: a DRAM or MPP size the machine
// could not allocate, or an MPP table with no entries, is an error from
// Run, not a panic while the machine is built.
func TestPublicAPIInvalidMachineIsAnError(t *testing.T) {
	g, err := droplet.Kron(8, 4, droplet.GraphOptions{Seed: 3, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: 4, PRIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*droplet.MachineConfig)
	}{
		{"huge MRB", func(c *droplet.MachineConfig) { c.DRAM.MRBEntries = 1 << 50 }},
		{"huge channel count", func(c *droplet.MachineConfig) { c.DRAM.Channels = 1 << 50 }},
		{"huge VAB", func(c *droplet.MachineConfig) { c.Prefetch.MPP.VABEntries = 1 << 50 }},
		{"empty VAB", func(c *droplet.MachineConfig) { c.Prefetch.MPP.VABEntries = 0 }},
		{"empty MTLB", func(c *droplet.MachineConfig) { c.Prefetch.MPP.MTLBEntries = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := droplet.PaperMachine()
			cfg.Prefetcher = droplet.DROPLET
			tc.set(&cfg)
			if res, err := droplet.Run(tr, cfg); err == nil || res != nil {
				t.Errorf("result %v, error %v; want an error", res, err)
			}
		})
	}
}
