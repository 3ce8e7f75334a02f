package exp

import (
	"fmt"
	"strings"

	"droplet/internal/core"
	"droplet/internal/mem"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// AblationRow compares DROPLET against variants that each disable one
// design decision of Table IV.
type AblationRow struct {
	Bench workload.Benchmark
	// Speedup vs the no-prefetch baseline, per variant.
	Droplet float64
	// DemandTriggered answers "when to prefetch": the MPP reacts to
	// structure demand refills instead of prefetch refills.
	DemandTriggered float64
	// Monolithic answers "decouple or not": the same engines fused at the
	// L1, paying the refill-climb trigger delay and polluting the L1.
	Monolithic float64
	// NotDataAware answers "restrict the streamer or not": streamMPP1's
	// conventional streamer with an oracle MPP.
	NotDataAware float64
	// PropAccuracy contrasts timeliness: fraction of property prefetches
	// demanded before eviction, droplet vs demand-triggered.
	PropAccuracyDroplet float64
	PropAccuracyDemand  float64
}

// Ablation holds the Table IV design-decision ablation results.
type Ablation struct {
	Rows []AblationRow
}

// ablationBenchmarks picks representative skewed workloads (the regime
// where all three decisions matter).
var ablationBenchmarks = []workload.Benchmark{
	{Algo: workload.PR, Dataset: "kron"},
	{Algo: workload.PR, Dataset: "orkut"},
	{Algo: workload.CC, Dataset: "kron"},
	{Algo: workload.CC, Dataset: "orkut"},
}

// RunAblation quantifies each Table IV design decision by disabling it.
func RunAblation(s *Suite) (*Ablation, error) {
	f := &Ablation{}
	benches := ablationBenchmarks
	if s.Benchmarks != nil {
		benches = s.Benchmarks
	}
	rs, err := grid[*sim.Result](s, benches, kindCols(core.NoPrefetch, core.DROPLET,
		core.DROPLETDemandTriggered, core.MonoDROPLETL1, core.StreamMPP1))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base, drop, demand := rs[i][0], rs[i][1], rs[i][2]
		row := AblationRow{
			Bench:           b,
			Droplet:         drop.Speedup(base),
			DemandTriggered: demand.Speedup(base),
			Monolithic:      rs[i][3].Speedup(base),
			NotDataAware:    rs[i][4].Speedup(base),
		}
		row.PropAccuracyDroplet, _ = drop.PrefetchAccuracy(mem.Property)
		row.PropAccuracyDemand, _ = demand.PrefetchAccuracy(mem.Property)
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Format renders the ablation as text.
func (f *Ablation) Format() string {
	var sb strings.Builder
	sb.WriteString("Ablation: disabling each Table IV design decision (speedup vs nopf)\n")
	fmt.Fprintf(&sb, "  %-12s %9s %11s %11s %11s %18s\n",
		"benchmark", "droplet", "demand-trig", "monolithic", "not-aware", "prop-acc d/dt")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-12s %9.3f %11.3f %11.3f %11.3f %8.0f%% /%6.0f%%\n",
			r.Bench.String(), r.Droplet, r.DemandTriggered, r.Monolithic, r.NotDataAware,
			r.PropAccuracyDroplet*100, r.PropAccuracyDemand*100)
	}
	sb.WriteString("  (demand-trig: MPP fires on structure demand refills — Table IV says too late;\n")
	sb.WriteString("   monolithic: fused at L1; not-aware: conventional streamer + oracle MPP)\n")
	return sb.String()
}
