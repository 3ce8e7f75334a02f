package droplet_test

import (
	"context"
	"fmt"

	"droplet"
)

// ExampleFromEdges builds a tiny CSR graph by hand and inspects it.
func ExampleFromEdges() {
	g, err := droplet.FromEdges([]droplet.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
	}, droplet.BuildOptions{Symmetrize: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(g.NumVertices(), "vertices,", g.NumEdges(), "directed edges")
	fmt.Println("neighbors of 2:", g.Neighbors(2))
	// Output:
	// 3 vertices, 6 directed edges
	// neighbors of 2: [0 1]
}

// ExampleRunBFS runs the reference BFS kernel on a path graph.
func ExampleRunBFS() {
	g, _ := droplet.FromEdges([]droplet.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
	}, droplet.BuildOptions{})
	fmt.Println(droplet.RunBFS(g, 0))
	// Output:
	// [0 1 2 3]
}

// ExampleSimulate shows the redesigned entry point: Simulate takes a
// context plus functional options, superseding Run (which survives as
// Run(tr, cfg) == Simulate(context.Background(), tr, cfg)). Here an
// in-memory telemetry collector records per-epoch cycle stacks; the
// observer never changes the simulation's result.
func ExampleSimulate() {
	g, _ := droplet.Kron(9, 8, droplet.GraphOptions{Seed: 5, Symmetrize: true})
	tr, _ := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: 4, PRIters: 2})

	cfg := droplet.ExperimentMachine()
	cfg.Prefetcher = droplet.DROPLET

	sink := &droplet.MemorySink{}
	res, err := droplet.Simulate(context.Background(), tr, cfg,
		droplet.WithObserver(droplet.NewCollector(sink, droplet.RunMeta{Kernel: "pr"})),
		droplet.WithEpochCycles(10000),
	)
	if err != nil {
		panic(err)
	}

	// Every epoch's cycle stack sums exactly to its elapsed cycles.
	rec := sink.Records[0].Cores[0]
	sum := rec.Base + rec.DepStall + rec.QueueStall + rec.BarrierStall
	for _, v := range rec.MemStall {
		sum += v
	}
	fmt.Println("conserved:", sum == rec.EndCycle-rec.StartCycle)
	fmt.Println("deterministic result:", res.Cycles > 0 && res.Instructions > 0)
	// Output:
	// conserved: true
	// deterministic result: true
}

// ExampleSimulate_replacement swaps the LLC replacement policy on the
// machine config. Policies are parsed by name (ParseReplacement
// round-trips every Replacements() entry), and every policy — including
// the seeded Random — is fully deterministic, so A/B runs are exactly
// reproducible.
func ExampleSimulate_replacement() {
	g, _ := droplet.Kron(9, 8, droplet.GraphOptions{Seed: 5, Symmetrize: true})
	tr, _ := droplet.TraceOf(droplet.PR, g, droplet.TraceOptions{Cores: 4, PRIters: 2})

	cfg := droplet.ExperimentMachine()
	cfg.LLC.SizeBytes = 4 << 10 // shrink so this tiny graph forces LLC evictions
	lru, _ := droplet.Simulate(context.Background(), tr, cfg)

	pol, err := droplet.ParseReplacement("drrip")
	if err != nil {
		panic(err)
	}
	cfg.LLC.Policy = pol
	drrip, _ := droplet.Simulate(context.Background(), tr, cfg)
	again, _ := droplet.Simulate(context.Background(), tr, cfg)

	fmt.Println("policies:", len(droplet.Replacements()))
	fmt.Println("deterministic:", drrip.Cycles == again.Cycles)
	fmt.Println("differs from lru:", drrip.Cycles != lru.Cycles)
	// Output:
	// policies: 6
	// deterministic: true
	// differs from lru: true
}

// ExampleTraceOf records a kernel's memory accesses and profiles its
// load-load dependency chains (Observation #2 of the paper).
func ExampleTraceOf() {
	g, _ := droplet.Grid(8, 8, droplet.GraphOptions{Seed: 1})
	tr, err := droplet.TraceOf(droplet.CC, g, droplet.TraceOptions{Cores: 2})
	if err != nil {
		panic(err)
	}
	dep := droplet.AnalyzeDependencies(tr, 128)
	fmt.Println("cores:", tr.NumCores())
	fmt.Println("chains are short:", dep.AvgChainLen < 4)
	// Output:
	// cores: 2
	// chains are short: true
}
