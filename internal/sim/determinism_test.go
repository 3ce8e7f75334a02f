package sim

import (
	"context"
	"reflect"
	"testing"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/graph"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
)

// driveReference is the per-event oracle drive is checked against: every
// iteration rescans all cores and steps the runnable one with the
// smallest local clock (ties to the lowest index); when every unfinished
// core is parked at a barrier, they release together at the latest
// arrival time. O(cores) per event.
func driveReference(cores []*cpu.Core) {
	for {
		var next *cpu.Core
		var nextClock int64
		allDone := true
		for _, c := range cores {
			if c.Done() {
				continue
			}
			allDone = false
			if c.AtBarrier() {
				continue
			}
			if clk := c.Clock(); next == nil || clk < nextClock {
				next = c
				nextClock = clk
			}
		}
		if allDone {
			return
		}
		if next == nil {
			releaseBarrier(cores)
			continue
		}
		next.Step()
	}
}

// runReference builds the machine exactly as Simulate does and drives it
// with driveReference.
func runReference(tr *trace.Trace, cfg Config) (*Result, error) {
	h, att, cores, err := build(cfg, tr.Layout, func(i int, port cpu.MemPort) *cpu.Core {
		return cpu.NewCore(i, cfg.CPU, port, tr.PerCore[i])
	})
	if err != nil {
		return nil, err
	}
	driveReference(cores)
	return collect(cfg, h, att, cores), nil
}

// TestQuantumDriverMatchesReference pins the drive loop to the per-event
// reference loop: for every (kernel, prefetcher) permutation, every way
// of reaching the loop — a plain run, a cancellable context, epoch
// boundaries with a progress callback, an attached observer, and the
// streamed trace — must produce bit-identical results: same cycles, same
// per-core counters, same hierarchy and DRAM statistics. Quanta and
// epoch boundaries exist purely as a faster encoding of the reference's
// step sequence, so any divergence here is a scheduling bug, not a
// modeling change.
func TestQuantumDriverMatchesReference(t *testing.T) {
	g, err := graph.Kron(10, 8, graph.GenOptions{Seed: 7, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestComponentSource(g)
	opt := trace.Options{Cores: 4, PRIters: 2}

	traces := map[string]*trace.Trace{}
	prTr, _ := trace.PageRank(g, g.Transpose(), opt)
	traces["PR"] = prTr
	bfsTr, _ := trace.BFS(g, src, opt)
	traces["BFS"] = bfsTr
	streams := map[string]func() *trace.Stream{
		"PR":  func() *trace.Stream { return trace.StreamPageRank(g, g.Transpose(), opt, trace.StreamConfig{}) },
		"BFS": func() *trace.Stream { return trace.StreamBFS(g, src, opt, trace.StreamConfig{}) },
	}

	cfg := DefaultConfig()
	// Shrink the caches (fig11-style quick machine) so the traces actually
	// stress misses, prefetch timing, and barrier scheduling.
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 32 << 10

	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	bg := context.Background()

	kinds := []core.PrefetcherKind{core.NoPrefetch, core.GHB, core.Stream, core.DROPLET}
	for name, tr := range traces {
		for _, kind := range kinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				c := cfg
				c.Prefetcher = kind
				ref, err := runReference(tr, c)
				if err != nil {
					t.Fatal(err)
				}
				inputs := []struct {
					name string
					run  func() (*Result, error)
				}{
					{"plain", func() (*Result, error) { return Simulate(bg, tr, c, Options{}) }},
					{"cancellable", func() (*Result, error) { return Simulate(cancellable, tr, c, Options{}) }},
					{"progress", func() (*Result, error) {
						return Simulate(bg, tr, c, Options{EpochCycles: 1000, Progress: func(int64) {}})
					}},
					{"observer", func() (*Result, error) {
						col := telemetry.NewCollector(&telemetry.MemorySink{}, telemetry.RunMeta{})
						return Simulate(bg, tr, c, Options{Observer: col, EpochCycles: 1000, Progress: func(int64) {}})
					}},
					{"stream", func() (*Result, error) { return SimulateStream(bg, streams[name](), c, Options{}) }},
				}
				for _, in := range inputs {
					t.Run(in.name, func(t *testing.T) {
						got, err := in.run()
						if err != nil {
							t.Fatal(err)
						}
						if got.Cycles != ref.Cycles {
							t.Errorf("cycles: %d, reference %d", got.Cycles, ref.Cycles)
						}
						if got.Instructions != ref.Instructions {
							t.Errorf("instructions: %d, reference %d", got.Instructions, ref.Instructions)
						}
						if !reflect.DeepEqual(got.CoreStats, ref.CoreStats) {
							t.Errorf("per-core stats diverge:\ngot       %+v\nreference %+v", got.CoreStats, ref.CoreStats)
						}
						if !reflect.DeepEqual(*got.Hier.Stats(), *ref.Hier.Stats()) {
							t.Errorf("hierarchy stats diverge:\ngot       %+v\nreference %+v", *got.Hier.Stats(), *ref.Hier.Stats())
						}
						if !reflect.DeepEqual(*got.Hier.MC().Stats(), *ref.Hier.MC().Stats()) {
							t.Errorf("DRAM stats diverge:\ngot       %+v\nreference %+v", *got.Hier.MC().Stats(), *ref.Hier.MC().Stats())
						}
						if !reflect.DeepEqual(*got.Hier.LLC().Stats(), *ref.Hier.LLC().Stats()) {
							t.Errorf("LLC stats diverge:\ngot       %+v\nreference %+v", *got.Hier.LLC().Stats(), *ref.Hier.LLC().Stats())
						}
					})
				}
			})
		}
	}
}
