package exp

import (
	"strings"
	"sync"
	"testing"

	"droplet/internal/core"
	"droplet/internal/sim"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// runCounter counts scheduler executions per cache key via the Progress
// hook (one line per executed request, none for cache hits).
type runCounter struct {
	mu   sync.Mutex
	runs map[string]int
}

func (c *runCounter) hook() func(string) {
	c.runs = make(map[string]int)
	return func(line string) {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return
		}
		c.mu.Lock()
		c.runs[fields[1]]++
		c.mu.Unlock()
	}
}

// TestConcurrentResultSingleflight issues overlapping Result calls for
// duplicate and distinct keys from many goroutines and asserts exactly
// one simulation per key (run under -race this also exercises the
// scheduler's synchronization end to end).
func TestConcurrentResultSingleflight(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Jobs = 4
	var counter runCounter
	s.Progress = counter.hook()

	benches := []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.BFS, Dataset: "road"},
	}
	kinds := []core.PrefetcherKind{core.NoPrefetch, core.Stream}
	rob := Machine(s.Base.Scale).CPU.ROBSize

	type got struct {
		key string
		r   *sim.Result
	}
	const callers = 8
	results := make([][]got, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary request order across goroutines so duplicate and
			// distinct keys overlap in every interleaving.
			for j := range benches {
				b := benches[(i+j)%len(benches)]
				for _, k := range kinds {
					r, err := s.Result(b, k, Variant{})
					if err != nil {
						t.Errorf("Result(%s,%v): %v", b, k, err)
						return
					}
					results[i] = append(results[i], got{fmtKey(b, k, ""), r})
				}
				if _, err := s.Analyze(b, rob); err != nil {
					t.Errorf("Analyze(%s): %v", b, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	wantKeys := len(benches)*len(kinds) + len(benches) // sims + analyses
	if len(counter.runs) != wantKeys {
		t.Errorf("executed %d distinct keys, want %d: %v", len(counter.runs), wantKeys, counter.runs)
	}
	for key, n := range counter.runs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want exactly 1", key, n)
		}
	}
	// Every caller must observe the same cached *sim.Result per key.
	first := make(map[string]*sim.Result)
	for _, rs := range results {
		for _, g := range rs {
			if prev, ok := first[g.key]; ok && prev != g.r {
				t.Errorf("key %s returned different result objects", g.key)
			}
			first[g.key] = g.r
		}
	}
}

// TestParallelTablesMatchSerial proves scheduler determinism: the
// formatted tables from a Jobs=4 suite must be byte-identical to the
// serial Jobs=1 run.
func TestParallelTablesMatchSerial(t *testing.T) {
	benches := []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.BFS, Dataset: "road"},
	}
	ids := []string{"fig3", "fig4b", "fig5", "fig7"}
	render := func(jobs int) string {
		s := NewSuite(workload.Quick)
		s.Jobs = jobs
		s.Benchmarks = benches
		var sb strings.Builder
		for _, id := range ids {
			e, err := ExperimentByID(id)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(s)
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, id, err)
			}
			sb.WriteString(out)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Errorf("parallel tables differ from serial run:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", serial, parallel)
	}
}

// TestTraceCacheBounded checks the memory discipline: at most Jobs
// traces are alive, and Jobs=1 degenerates to the historical
// one-trace-alive behavior.
func TestTraceCacheBounded(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Jobs = 1
	benches := []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.BFS, Dataset: "road"},
		{Algo: workload.CC, Dataset: "kron"},
	}
	for _, b := range benches {
		if _, err := s.Result(b, core.NoPrefetch, Variant{}); err != nil {
			t.Fatalf("Result(%s): %v", b, err)
		}
		s.traceMu.Lock()
		live := len(s.traces)
		s.traceMu.Unlock()
		if live > 1 {
			t.Fatalf("jobs=1 suite holds %d live traces after %s, want <= 1", live, b)
		}
	}
}

// TestBaseCores: the base machine's core count reaches every table cell,
// which runs over a trace generated with that many per-core streams.
func TestBaseCores(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Base.Cores = 2
	var mu sync.Mutex
	var streams []int
	s.generateTrace = func(b workload.Benchmark, sc workload.Scale, cores int) (*trace.Trace, error) {
		tr, err := workload.GenerateTrace(b, sc, cores)
		if err == nil {
			mu.Lock()
			streams = append(streams, tr.NumCores())
			mu.Unlock()
		}
		return tr, err
	}
	rs, err := grid[*sim.Result](s, []workload.Benchmark{{Algo: workload.BFS, Dataset: "road"}}, kindCols(core.NoPrefetch))
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0][0]; r.Config.Cores != 2 || len(r.CoreStats) != 2 {
		t.Errorf("cell ran %d cores (%d core stats), want 2", r.Config.Cores, len(r.CoreStats))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(streams) != 1 || streams[0] != 2 {
		t.Errorf("generated traces with %v streams, want one with 2", streams)
	}
}

// TestGridPropagatesErrors checks error aggregation: a benchmark that
// cannot generate a trace fails the table deterministically.
func TestGridPropagatesErrors(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Jobs = 2
	benches := []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.PR, Dataset: "nonexistent"},
	}
	_, err := grid[*sim.Result](s, benches, kindCols(core.NoPrefetch))
	if err == nil {
		t.Fatal("grid succeeded despite unknown dataset")
	}
	if !strings.Contains(err.Error(), "nonexistent") {
		t.Errorf("error %v does not name the failing benchmark", err)
	}
	// The healthy sibling must remain usable afterwards.
	if _, err := s.Result(benches[0], core.NoPrefetch, Variant{}); err != nil {
		t.Errorf("healthy benchmark unusable after failed table: %v", err)
	}
}
