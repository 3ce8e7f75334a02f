package exp

import (
	"fmt"
	"strings"

	"droplet/internal/cache"
	"droplet/internal/mem"
	"droplet/internal/sim"
)

// replPolicies is the swept LLC policy set, in presentation order (every
// implemented policy; LRU first as the baseline column).
func replPolicies() []cache.Kind { return cache.AllKinds() }

// replVariant names the machine variant that sets the LLC policy to k.
// The suite's own policy (Suite.Base.Replacement) keeps the empty name,
// so it shares the cached no-prefetch baseline instead of re-simulating
// it; every other policy, LRU included, gets its own repl-<policy>
// variant.
func (s *Suite) replVariant(k cache.Kind) Variant {
	if k == s.Base.Replacement {
		return Variant{}
	}
	kk := k
	return Variant{
		Name:   "repl-" + k.String(),
		Mutate: func(cfg *sim.Config) { cfg.LLC.Policy = kk },
	}
}

// ReplRow is one benchmark's sweep: per-policy LLC demand misses (total
// and by data type) and cycles, on the no-prefetch baseline machine.
type ReplRow struct {
	Misses [mem.NumDataTypes]uint64
	Total  uint64
	Cycles int64
}

// ReplSweep compares LLC replacement policies per benchmark and data
// type, in the spirit of Jamet et al.'s cache-hierarchy characterization
// of graph workloads: graph access patterns (thrashing structure
// streams vs. high-reuse property lines) respond very differently to
// scan-resistant policies, and the per-type split shows which stream
// each policy sacrifices.
type ReplSweep struct {
	// Rows maps benchmark → policy name → measurements.
	Rows map[string]map[string]ReplRow
}

// RunReplacementSweep sweeps every replacement policy over the suite's
// benchmark matrix (no prefetcher, so replacement effects are not
// masked by prefetch fills).
func RunReplacementSweep(s *Suite) (*ReplSweep, error) {
	benches, policies := s.benchmarks(), replPolicies()
	cols := make([]Request, len(policies))
	for i, k := range policies {
		cols[i] = Request{Variant: s.replVariant(k)}
	}
	rs, err := grid[*sim.Result](s, benches, cols)
	if err != nil {
		return nil, err
	}
	f := &ReplSweep{Rows: make(map[string]map[string]ReplRow)}
	for i, b := range benches {
		row := make(map[string]ReplRow)
		for j, k := range policies {
			r := rs[i][j]
			rr := ReplRow{
				Misses: r.Hier.Stats().LLCDemandMissesByType,
				Cycles: r.Cycles,
			}
			for _, v := range rr.Misses {
				rr.Total += v
			}
			row[k.String()] = rr
		}
		f.Rows[b.String()] = row
	}
	return f, nil
}

// Format renders the sweep: per benchmark, each policy's total LLC
// demand misses and delta vs. LRU, then the per-data-type miss deltas.
func (f *ReplSweep) Format() string {
	var sb strings.Builder
	sb.WriteString("Replacement sweep: LLC demand misses by policy (no prefetch; delta vs lru)\n")
	fmt.Fprintf(&sb, "  %-14s %-13s %12s %8s %10s %10s %10s\n",
		"benchmark", "policy", "misses", "Δmiss%", "struct%", "prop%", "interm%")
	pct := func(v, base uint64) string {
		if base == 0 {
			if v == 0 {
				return "0.0"
			}
			return "inf"
		}
		return fmt.Sprintf("%+.1f", (float64(v)/float64(base)-1)*100)
	}
	for _, bench := range sortedKeys(f.Rows) {
		row := f.Rows[bench]
		base := row[cache.KindLRU.String()]
		for _, k := range replPolicies() {
			rr := row[k.String()]
			fmt.Fprintf(&sb, "  %-14s %-13s %12d %8s %10s %10s %10s\n",
				bench, k, rr.Total, pct(rr.Total, base.Total),
				pct(rr.Misses[mem.Structure], base.Misses[mem.Structure]),
				pct(rr.Misses[mem.Property], base.Misses[mem.Property]),
				pct(rr.Misses[mem.Intermediate], base.Misses[mem.Intermediate]))
		}
	}
	return sb.String()
}
