package exp

import (
	"fmt"
	"strings"

	"droplet/internal/core"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// AdaptiveRow compares the Section VII-B adaptive extension against the
// fixed designs on one benchmark.
type AdaptiveRow struct {
	Bench      workload.Benchmark
	Droplet    float64 // speedup vs nopf
	StreamMPP1 float64
	Adaptive   float64
	Switches   int // adaptive mode changes observed
}

// Adaptive holds the extension study results.
type Adaptive struct {
	Rows []AdaptiveRow
}

// adaptiveBenchmarks mixes workloads where DROPLET wins (skewed graphs)
// with those where streamMPP1 wins (meshes, BFS) — the adaptive design
// should track the winner on both.
var adaptiveBenchmarks = []workload.Benchmark{
	{Algo: workload.PR, Dataset: "kron"},
	{Algo: workload.CC, Dataset: "kron"},
	{Algo: workload.PR, Dataset: "road"},
	{Algo: workload.BFS, Dataset: "road"},
}

// RunAdaptive evaluates the adaptive data-awareness extension.
func RunAdaptive(s *Suite) (*Adaptive, error) {
	benches := adaptiveBenchmarks
	if s.Benchmarks != nil {
		benches = s.Benchmarks
	}
	rs, err := grid[*sim.Result](s, benches, kindCols(core.NoPrefetch, core.DROPLET,
		core.StreamMPP1, core.DROPLETAdaptive))
	if err != nil {
		return nil, err
	}
	f := &Adaptive{}
	for i, b := range benches {
		base, a := rs[i][0], rs[i][3]
		row := AdaptiveRow{
			Bench:      b,
			Droplet:    rs[i][1].Speedup(base),
			StreamMPP1: rs[i][2].Speedup(base),
			Adaptive:   a.Speedup(base),
		}
		for _, ad := range a.Attachment.Adaptives {
			row.Switches += ad.Switches
		}
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Format renders the study as text.
func (f *Adaptive) Format() string {
	var sb strings.Builder
	sb.WriteString("Adaptive extension (Section VII-B): toggling data-awareness by measured L2 hit rate\n")
	fmt.Fprintf(&sb, "  %-12s %9s %12s %10s %9s\n", "benchmark", "droplet", "streamMPP1", "adaptive", "switches")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-12s %9.3f %12.3f %10.3f %9d\n",
			r.Bench.String(), r.Droplet, r.StreamMPP1, r.Adaptive, r.Switches)
	}
	sb.WriteString("  (goal: adaptive tracks the better of the two fixed designs per workload)\n")
	return sb.String()
}
