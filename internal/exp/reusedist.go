package exp

import (
	"context"
	"fmt"
	"strings"

	"droplet/internal/mem"
	"droplet/internal/stats"
	"droplet/internal/workload"
)

// ReuseDist is the reuse-distance view behind Observation #6: exact LRU
// stack-distance distributions per data type, summarized as the
// probability that an access missing an L1-sized window also misses an
// L2- or LLC-sized window.
type ReuseDist struct {
	Rows []ReuseDistRow
}

// ReuseDistRow is one benchmark's per-type conditional miss profile.
type ReuseDistRow struct {
	Bench workload.Benchmark
	// BeyondL2 / BeyondLLC index by data type: P(distance >= cap | missed
	// an L1-sized window).
	BeyondL2  [mem.NumDataTypes]float64
	BeyondLLC [mem.NumDataTypes]float64
}

// RunReuseDist profiles a representative subset (one benchmark per
// algorithm on kron) — the profiler is exact and O(n log n) per access,
// so the full matrix would dominate runtime without adding signal.
func RunReuseDist(s *Suite) (*ReuseDist, error) {
	benches := s.Benchmarks
	if benches == nil {
		for _, a := range workload.AllAlgorithms {
			benches = append(benches, workload.Benchmark{Algo: a, Dataset: "kron"})
		}
	}
	m := Machine(s.Base.Scale)
	l1Lines := m.L1.SizeBytes / mem.LineSize
	l2Lines := m.L2.SizeBytes / mem.LineSize
	llcLines := m.LLC.SizeBytes / mem.LineSize

	// Profiling is per-benchmark CPU-bound work, so it fans out on the
	// suite's scheduler: traces come from the shared bounded cache and
	// rows return in input order regardless of completion order.
	rows, err := forEachBench(s, benches, func(_ context.Context, b workload.Benchmark) (ReuseDistRow, error) {
		tr, entry, err := s.acquireTrace(b, s.Base.Scale, s.Base.Cores)
		if err != nil {
			return ReuseDistRow{}, err
		}
		defer s.releaseTrace(entry)
		tp := stats.ProfileTrace(tr)
		row := ReuseDistRow{Bench: b}
		for dt := 0; dt < mem.NumDataTypes; dt++ {
			row.BeyondL2[dt] = tp.Hist[dt].ConditionalFractionBeyond(l2Lines, l1Lines)
			row.BeyondLLC[dt] = tp.Hist[dt].ConditionalFractionBeyond(llcLines, l1Lines)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ReuseDist{Rows: rows}, nil
}

// Format renders the profile as text.
func (f *ReuseDist) Format() string {
	var sb strings.Builder
	sb.WriteString("Reuse distance (Observation #6): of loads missing an L1-sized window,\n")
	sb.WriteString("fraction whose stack distance also exceeds the L2 / LLC capacity\n")
	fmt.Fprintf(&sb, "  %-14s %-14s %10s %10s\n", "benchmark", "type", ">L2", ">LLC")
	for _, r := range f.Rows {
		for dt := 0; dt < mem.NumDataTypes; dt++ {
			fmt.Fprintf(&sb, "  %-14s %-14v %9.1f%% %9.1f%%\n",
				r.Bench.String(), mem.DataType(dt), r.BeyondL2[dt]*100, r.BeyondLLC[dt]*100)
		}
	}
	sb.WriteString("  (structure escapes even the LLC — stream it from DRAM; property escapes\n")
	sb.WriteString("   the L2 but not always the LLC — the L2 is useless without DROPLET)\n")
	return sb.String()
}
