package exp

import (
	"testing"

	"droplet/internal/cache"
	"droplet/internal/workload"
)

// TestReplSweepIndependentOfSuitePolicy runs the sweep on PR-kron under
// the default LRU suite and under a suite-wide SRRIP LLC. Each column
// names the policy it measures, so every row must match: in particular
// the lru column under SRRIP is real LRU (its own repl-lru variant), not
// the suite's SRRIP baseline.
func TestReplSweepIndependentOfSuitePolicy(t *testing.T) {
	b := workload.Benchmark{Algo: workload.PR, Dataset: "kron"}
	sweep := func(pol cache.Kind) map[string]ReplRow {
		s := NewSuite(workload.Quick)
		s.Benchmarks = []workload.Benchmark{b}
		s.Base.Replacement = pol
		f, err := RunReplacementSweep(s)
		if err != nil {
			t.Fatalf("%v suite: %v", pol, err)
		}
		return f.Rows[b.String()]
	}
	want, got := sweep(cache.KindLRU), sweep(cache.KindSRRIP)
	for _, k := range replPolicies() {
		if got[k.String()] != want[k.String()] {
			t.Errorf("%s row under a suite-wide srrip LLC = %+v, want the default suite's %+v",
				k, got[k.String()], want[k.String()])
		}
	}
}
