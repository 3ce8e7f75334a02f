package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"droplet/internal/graph"
	"droplet/internal/simreq"
)

func TestColdRequests(t *testing.T) {
	perm := graph.NewRNG(7).Perm(coldEpochs)
	if !slices.Equal(perm, graph.NewRNG(7).Perm(coldEpochs)) {
		t.Error("epoch permutation differs between two calls with one seed")
	}
	seen := make(map[string]bool)
	for _, b := range loadBenchmarks {
		// droplet-load's body and the benchmark's own form of it name one
		// request.
		load, err := simreq.Decode(bytes.NewReader(loadBody(b)))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		hl, _ := load.Hash()
		if h, _ := (simreq.Request{Benchmark: b, Scale: "quick"}).Hash(); h != hl {
			t.Errorf("%s: droplet-load's body hashes to %s, the request to %s", b, hl[:12], h[:12])
		}
		seen[hl] = true
		for k := range coldEpochs {
			q := coldRequest(b, coldEpoch(perm, k))
			got, err := simreq.Decode(bytes.NewReader(canonicalBody(q)))
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			h, _ := q.Hash()
			if h2, _ := got.Hash(); h2 != h {
				t.Fatalf("%+v: hash changes across decode", q)
			}
			if seen[h] {
				t.Fatalf("%+v: hash %s repeats", q, h[:12])
			}
			seen[h] = true
		}
	}
	if want := len(loadBenchmarks) * (coldEpochs + 1); len(seen) != want {
		t.Errorf("%d distinct hashes, want %d", len(seen), want)
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks each report carries exactly the metrics BENCHMARK.json names.
// It takes a few seconds, so it runs under -short too.
func TestSmoke(t *testing.T) {
	var spec Spec
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := Run(Config{
				Workload: w,
				Seed:     1,
				Seconds:  0.05,
				Trace:    traced,
				Toy:      true,
				OutDir:   t.TempDir(),
				Log:      testLog{t},
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no metric %s", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// testLog routes run diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

func TestVerdict(t *testing.T) {
	mk := func(vals ...float64) *series {
		s := &series{bySeed: make(map[uint64]float64)}
		for i, v := range vals {
			s.bySeed[uint64(i+1)] = v
		}
		return s
	}
	lower := MetricSpec{Name: "op_norm_ms", Better: "lower", Bound: 0.05}
	cases := []struct {
		name string
		m    MetricSpec
		a, b *series
		want string
	}{
		{"faster everywhere", lower, mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), improved},
		{"same", lower, mk(100, 101, 99, 100, 102), mk(100, 100, 100, 101, 99), noWorse},
		{"slower beyond bound", lower, mk(100, 101, 99, 100, 102), mk(110, 111, 109, 110, 112), worse},
		{"noisy parent", lower, mk(80, 120, 100, 90, 110), mk(100, 100, 101, 99, 100), unresolved},
		{"noisy parent, change beats all", lower, mk(80, 120, 100, 90, 110), mk(70, 71, 72, 73, 74), noWorse},
		{"higher is better", MetricSpec{Better: "higher", Bound: 0.05}, mk(10, 10, 10, 10, 10), mk(9, 9, 9, 9, 9), worse},
		{"no bound", MetricSpec{Better: "lower"}, mk(1, 2, 3), mk(3, 2, 1), noBound},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCountsFailures(t *testing.T) {
	spec := Spec{EndToEnd: []MetricSpec{{Name: "op_norm_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(seed uint64, v float64, failed int) Result {
		rep := Report{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]Metric{"op_norm_ms": {v, "ms"}}}
		return Result{Workload: "fig11-table", Seed: seed, Report: rep}
	}
	var parent, faster, failsOnce, failsAll []Result
	for s := uint64(1); s <= 10; s++ {
		parent = append(parent, run(s, 100, 0))
		faster = append(faster, run(s, 50, 0))
		once := 0
		if s == 3 {
			once = 1
		}
		failsOnce = append(failsOnce, run(s, 50, once))
		failsAll = append(failsAll, run(s, 50, 1))
	}
	noResult := []Result{{Workload: "fig11-table", Seed: 1}}
	cases := []struct {
		name     string
		b        []Result
		bad      bool
		improved bool
	}{
		{"faster, no failures", faster, false, true},
		{"faster, one run fails", failsOnce, true, false},
		{"every run fails", failsAll, true, false},
		{"no result printed", noResult, true, false},
		{"no run at all", nil, true, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		bad, err := Compare(&out, spec, parent, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if (bad > 0) != c.bad {
			t.Errorf("%s: %d bad rows, want bad=%v\n%s", c.name, bad, c.bad, out.String())
		}
		if got := strings.Contains(out.String(), improved); got != c.improved {
			t.Errorf("%s: improved=%v, want %v\n%s", c.name, got, c.improved, out.String())
		}
	}
}
