package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Result is one run as a sweep records it: one JSON object per line of a
// results file.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Report   Report `json:"report"`
}

// ReadResults reads a results file.
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// AppendResult appends one run to a results file.
func AppendResult(path string, r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MetricSpec is one metric of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json that comparisons read.
type Spec struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// series is one metric of one workload across runs, keyed by seed.
type series struct {
	workload string
	spec     MetricSpec
	bySeed   map[uint64]float64
}

func (s *series) values() []float64 {
	out := make([]float64, 0, len(s.bySeed))
	for _, seed := range slices.Sorted(maps.Keys(s.bySeed)) {
		out = append(out, s.bySeed[seed])
	}
	return out
}

// collect groups results into one series per workload × metric of spec,
// in workload then spec order. Failed runs are left out.
func collect(spec []MetricSpec, results []Result) []*series {
	var out []*series
	for _, w := range Workloads {
		for _, m := range spec {
			s := &series{workload: w, spec: m, bySeed: make(map[uint64]float64)}
			for _, r := range results {
				if v, ok := r.Report.Metrics[m.Name]; ok && r.Workload == w && r.Report.Correct {
					s.bySeed[r.Seed] = v.Value
				}
			}
			if len(s.bySeed) > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// Summarize prints every metric of spec by workload: run count, median,
// quartiles and spread (interquartile distance over median).
func Summarize(w io.Writer, spec []MetricSpec, results []Result) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound")
	for _, s := range collect(spec, results) {
		q1, q2, q3 := quartiles(s.values())
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%s\n",
			s.workload, s.spec.Name, s.spec.Unit, len(s.bySeed), q2, q1, q3, (q3-q1)/math.Abs(q2), boundText(s.spec))
	}
	return tw.Flush()
}

func boundText(m MetricSpec) string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", m.Bound)
}

// Verdicts of Compare.
const (
	improved   = "improved"
	noWorse    = "no worse"
	worse      = "worse"
	unresolved = "unresolved"
	noBound    = "-"
)

// verdict judges change b against parent a for one metric: improved when
// b wins at least nine tenths of the seed pairs and the medians differ by
// more than a's interquartile distance; otherwise, when a's own spread
// exceeds the bound, unresolved unless every b run beats every a run;
// otherwise worse when b's median is worse than a's by more than the
// bound. Metrics without a bound only get the improved verdict. It also
// returns the seed pairs b won and the pairs there were.
func verdict(m MetricSpec, a, b *series) (v string, wins, pairs int) {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for seed, av := range a.bySeed {
		if bv, ok := b.bySeed[seed]; ok {
			pairs++
			if better(bv, av) {
				wins++
			}
		}
	}
	av, bv := a.values(), b.values()
	q1, ma, q3 := quartiles(av)
	mb := median(bv)
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && better(mb, ma) && math.Abs(mb-ma) > q3-q1:
		return improved, wins, pairs
	case m.Bound == 0:
		return noBound, wins, pairs
	case (q3-q1)/math.Abs(ma) > m.Bound:
		worstB, bestA := slices.Max(bv), slices.Min(av)
		if m.Better == "higher" {
			worstB, bestA = slices.Min(bv), slices.Max(av)
		}
		if better(worstB, bestA) {
			return noWorse, wins, pairs
		}
		return unresolved, wins, pairs
	case better(ma, mb) && math.Abs(mb-ma) > m.Bound*math.Abs(ma):
		return worse, wins, pairs
	}
	return noWorse, wins, pairs
}

// failures counts one side's runs of one workload and the failures among
// them. A run that printed no result is recorded as a run that is not
// correct and attempted nothing.
type failures struct {
	runs, failedRuns, attempted, failed int
}

func (f failures) String() string {
	return fmt.Sprintf("%d/%d runs, %d/%d ops", f.failedRuns, f.runs, f.failed, f.attempted)
}

// moreThan reports whether f fails a larger share of its runs or of its
// operations than g.
func (f failures) moreThan(g failures) bool {
	share := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return float64(n) / float64(of)
	}
	return share(f.failedRuns, f.runs) > share(g.failedRuns, g.runs) ||
		share(f.failed, f.attempted) > share(g.failed, g.attempted)
}

// countFailures counts each workload's runs and failures in results.
func countFailures(results []Result) map[string]failures {
	out := make(map[string]failures)
	for _, r := range results {
		f := out[r.Workload]
		f.runs++
		if !r.Report.Correct {
			f.failedRuns++
		}
		f.attempted += r.Report.Attempted
		f.failed += r.Report.Failed
		out[r.Workload] = f
	}
	return out
}

// Compare prints, for each workload, a row of failed runs and operations
// on each side, then one row per metric: each side's median and
// quartiles, the seed pairs b wins out of those run, and the verdict. The
// failures row is worse when b fails a larger share of its runs or
// operations than a, or has no run of a workload a has; a metric a
// reports and b does not is worse too. On a workload where b fails more,
// no metric counts as improved. It returns the number of rows judged
// worse or unresolved.
func Compare(w io.Writer, spec Spec, a, b []Result) (int, error) {
	metrics := append(slices.Clone(spec.EndToEnd), spec.PerLayer...)
	fa, fb := countFailures(a), countFailures(b)
	bs := make(map[string]*series)
	for _, s := range collect(metrics, b) {
		bs[s.workload+"\x00"+s.spec.Name] = s
	}
	as := collect(metrics, a)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	bad := 0
	for _, wl := range Workloads {
		oa, inA := fa[wl]
		ob, inB := fb[wl]
		if !inA && !inB {
			continue
		}
		failsMore := ob.moreThan(oa) || (inA && !inB)
		v := noWorse
		if failsMore {
			v = worse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed\truns, ops\t%v\t%v\t-\t%s\n", wl, oa, ob, v)
		for _, sa := range as {
			if sa.workload != wl {
				continue
			}
			a1, a2, a3 := quartiles(sa.values())
			sb, ok := bs[sa.workload+"\x00"+sa.spec.Name]
			if !ok {
				bad++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\tmissing\t-\t%s\n", wl, sa.spec.Name, sa.spec.Unit, a2, a1, a3, worse)
				continue
			}
			v, wins, pairs := verdict(sa.spec, sa, sb)
			if v == improved && failsMore {
				v = noWorse
			}
			if v == worse || v == unresolved {
				bad++
			}
			b1, b2, b3 := quartiles(sb.values())
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
				wl, sa.spec.Name, sa.spec.Unit, a2, a1, a3, b2, b1, b3, wins, pairs, v)
		}
	}
	return bad, tw.Flush()
}
