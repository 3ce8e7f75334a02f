// Command droplet-bench runs droplet's benchmark.
//
// One run of one workload, the form BENCHMARK.json's command uses:
//
//	droplet-bench --workload pr-kron-droplet --seed 1 --seconds 15 --trace 0
//
// Diagnostics go to stderr; the last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics. --trace 1 runs the
// workload's traced pass instead and reports its per-layer metrics.
//
// A sweep runs every workload -runs times, each run in its own process
// with its own seed, appends every result to -results and prints each
// metric's median, quartiles and spread:
//
//	droplet-bench -runs 10 -seconds 15 -results bench-out/a.jsonl
//
// A comparison judges one sweep (the change) against another (its
// parent), one row per workload and metric:
//
//	droplet-bench -compare bench-out/parent.jsonl bench-out/change.jsonl
//
// bench/run.sh builds droplet-bench and droplet-serve and passes
// -serve-bin; see bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"droplet/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+strings.Join(bench.Workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input seed (the first seed of a sweep)")
		seconds  = flag.Float64("seconds", 15, "length of a run's measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		serveBin = flag.String("serve-bin", "", "droplet-serve binary the service workloads start (empty: serve in-process)")
		out      = flag.String("out", "bench-out", "directory for the spans of traced runs")
		runs     = flag.Int("runs", 0, "sweep: run every workload this many times, seeds -seed, -seed+1, …")
		results  = flag.String("results", "bench-out/results.jsonl", "sweep: results file to append to")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments: parent, then change")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition holding metric units and bounds")
	)
	flag.Parse()

	switch {
	case *compare:
		os.Exit(compareRuns(*specPath, flag.Args()))
	case *runs > 0:
		os.Exit(sweep(*specPath, *seed, *runs, *seconds, *trace, *serveBin, *out, *results))
	case *workload != "":
		os.Exit(runOne(bench.Config{
			Workload: *workload,
			Seed:     *seed,
			Seconds:  *seconds,
			Trace:    *trace == 1,
			ServeBin: *serveBin,
			OutDir:   *out,
			Log:      os.Stderr,
		}))
	}
	flag.Usage()
	os.Exit(2)
}

// runOne runs one workload and prints its report as the last line.
func runOne(cfg bench.Config) int {
	rep, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// sweep runs each workload runs times in a child process of this binary,
// seeds interleaved across workloads, and summarizes the results.
func sweep(specPath string, seed uint64, runs int, seconds float64, trace int, serveBin, out, results string) int {
	spec, err := bench.ReadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(results), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	status := 0
	var all []bench.Result
	for s := seed; s < seed+uint64(runs); s++ {
		for _, w := range bench.Workloads {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"-serve-bin", serveBin, "-out", out)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var rep bench.Report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				// Recorded as a failed run that attempted nothing, so a
				// comparison counts it.
				fmt.Fprintf(os.Stderr, "droplet-bench: %s seed %d printed no result (%v)\n", w, s, runErr)
				rep = bench.Report{}
			}
			if runErr != nil || !rep.Correct {
				status = 1
			}
			res := bench.Result{Workload: w, Seed: s, Trace: trace, Report: rep}
			if err := bench.AppendResult(results, res); err != nil {
				fmt.Fprintln(os.Stderr, "droplet-bench:", err)
				return 1
			}
			all = append(all, res)
		}
	}
	metrics := spec.EndToEnd
	if trace == 1 {
		metrics = spec.PerLayer
	}
	if err := bench.Summarize(os.Stdout, metrics, all); err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	return status
}

// compareRuns prints the comparison of two results files and fails when
// any row is worse or unresolved.
func compareRuns(specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "droplet-bench: -compare takes two results files: parent, then change")
		return 2
	}
	spec, err := bench.ReadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	var sides [2][]bench.Result
	for i, f := range files {
		if sides[i], err = bench.ReadResults(f); err != nil {
			fmt.Fprintln(os.Stderr, "droplet-bench:", err)
			return 1
		}
	}
	bad, err := bench.Compare(os.Stdout, spec, sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-bench:", err)
		return 1
	}
	if bad > 0 {
		return 1
	}
	return 0
}
