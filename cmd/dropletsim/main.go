// Command dropletsim runs one benchmark (algorithm × dataset) on one
// machine/prefetcher configuration and prints the simulation statistics,
// or — with -matrix — regenerates experiment tables over the benchmark
// matrix on the parallel scheduler.
//
// Usage:
//
//	dropletsim -algo PR -dataset orkut -prefetcher droplet -scale quick
//	dropletsim -algo PR -dataset kron -scale huge -stream -footprint fp.json
//	dropletsim -algo BFS -dataset road -sample-interval 20 -warming none
//	dropletsim -matrix fig3,fig4b -benchmarks PR-kron,BFS-road -jobs 4
//
// -stream replays the benchmark through the pull-based trace generator
// (peak memory bounded by the per-core window instead of the trace
// length); -sample-interval N enables SMARTS interval sampling. In -json
// mode all human-readable preamble goes to stderr, so stdout diffs clean
// across modes that produce identical results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"droplet"
	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// runFlags bundles the single-run command line.
type runFlags struct {
	algo, dataset, pf, scale     string
	replacement                  string
	replacementL1, replacementL2 string
	cores, llcKB                 int
	graphEL                      string
	asJSON, stream               bool
	sampleInterval, sampleDetail int
	sampleWarmup                 int
	warming                      string
	footprint                    string
	telemFormat, telemOut        string
	epochCyc                     int64
}

// cliFlags is the whole command line: the single-run flags plus the
// -matrix mode and profiling flags.
type cliFlags struct {
	runFlags
	matrix, benchmarks     string
	pfSet                  bool     // -prefetcher was given explicitly
	singleRun              []string // single-run-only flags given explicitly
	jobs                   int
	verbose                bool
	outPath, telemDir      string
	cpuProfile, memProfile string
}

// parseFlags parses args (without the program name) into a cliFlags.
func parseFlags(args []string) cliFlags {
	var c cliFlags
	fs := flag.NewFlagSet("dropletsim", flag.ExitOnError)
	fs.StringVar(&c.algo, "algo", "PR", "algorithm: BC, BFS, PR, SSSP, CC")
	fs.StringVar(&c.dataset, "dataset", "kron", "dataset: kron, urand, orkut, livejournal, road")
	fs.StringVar(&c.pf, "prefetcher", "droplet", "prefetcher: "+strings.Join(core.KindNames(), ", ")+" (comma-separated list restricts the -matrix pfx experiment)")
	fs.StringVar(&c.scale, "scale", "quick", "workload scale: quick, full, or huge (huge requires -stream)")
	fs.StringVar(&c.replacement, "replacement", "lru", "LLC replacement policy: lru, random, srrip, brrip, drrip, ship")
	fs.StringVar(&c.replacementL1, "replacement-l1", "lru", "private L1 replacement policy (same names as -replacement)")
	fs.StringVar(&c.replacementL2, "replacement-l2", "lru", "private L2 replacement policy (same names as -replacement)")
	fs.IntVar(&c.cores, "cores", 4, "number of simulated cores")
	fs.IntVar(&c.llcKB, "llc", 0, "override LLC size in KB (0 = scale default)")
	fs.StringVar(&c.graphEL, "graphfile", "", "run on a custom edge-list graph instead of a registered dataset")
	fs.BoolVar(&c.asJSON, "json", false, "emit the result summary as JSON (preamble goes to stderr)")
	fs.BoolVar(&c.stream, "stream", false, "replay through the pull-based trace generator instead of materializing the trace")
	fs.IntVar(&c.sampleInterval, "sample-interval", 0, "enable SMARTS sampling with this interval in epochs (0 = full run)")
	fs.IntVar(&c.sampleDetail, "sample-detail", 0, "measured epochs per sampling interval (0 = default 1)")
	fs.IntVar(&c.sampleWarmup, "sample-warmup", 0, "detailed warmup epochs per sampling interval (0 = default 1)")
	fs.StringVar(&c.warming, "warming", "functional", "fast-forward cache treatment: functional or none")
	fs.StringVar(&c.footprint, "footprint", "", "write a peak-memory JSON report to this file")
	fs.StringVar(&c.telemFormat, "telemetry", "", "stream epoch telemetry in this format: jsonl or csv (single-run mode)")
	fs.StringVar(&c.telemOut, "telemetry-out", "", "telemetry output file (default telemetry.<format>)")
	fs.Int64Var(&c.epochCyc, "epoch", 0, "telemetry/sampling epoch granularity in cycles (0 = default)")
	fs.StringVar(&c.matrix, "matrix", "", "run experiment tables (comma-separated ids or 'all') over the benchmark matrix instead of a single simulation")
	fs.StringVar(&c.benchmarks, "benchmarks", "", "restrict -matrix to comma-separated ALGO-dataset pairs (e.g. PR-kron,BFS-road)")
	fs.IntVar(&c.jobs, "jobs", runtime.NumCPU(), "parallel simulation workers (also bounds live traces)")
	fs.BoolVar(&c.verbose, "v", false, "print per-simulation progress to stderr")
	fs.StringVar(&c.outPath, "o", "", "write -matrix tables to this file instead of stdout")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&c.telemDir, "telemetry-dir", "", "stream per-simulation epoch JSONL files into this directory (-matrix mode)")
	fs.Parse(args)
	fs.Visit(func(f *flag.Flag) {
		c.pfSet = c.pfSet || f.Name == "prefetcher"
		if slices.Contains(singleRunFlags, f.Name) {
			c.singleRun = append(c.singleRun, "-"+f.Name)
		}
	})
	return c
}

// singleRunFlags configure one simulation's input or output and have no
// meaning for a table, so -matrix rejects them rather than ignore them.
var singleRunFlags = []string{"llc", "stream", "graphfile", "json", "footprint", "telemetry", "telemetry-out"}

func main() {
	c := parseFlags(os.Args[1:])

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dropletsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dropletsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dropletsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dropletsim:", err)
			}
		}()
	}

	rv, pfx, err := c.resolve()
	if err == nil {
		if c.matrix != "" {
			err = runMatrix(c, rv, pfx)
		} else {
			err = run(c.runFlags, rv)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dropletsim:", err)
		os.Exit(1)
	}
}

// request lowers the machine flags onto the canonical simulation
// request: -algo and -dataset name the benchmark, and the sampling flags
// become its sampling block when -sample-interval is set. -llc,
// -graphfile, -stream and -footprint have no request field and stay
// CLI-only.
func (rf runFlags) request() simreq.Request {
	q := simreq.Request{
		Benchmark:     rf.algo + "-" + rf.dataset,
		Scale:         rf.scale,
		Cores:         rf.cores,
		Prefetcher:    rf.pf,
		Replacement:   rf.replacement,
		ReplacementL1: rf.replacementL1,
		ReplacementL2: rf.replacementL2,
		EpochCycles:   rf.epochCyc,
	}
	if rf.sampleInterval != 0 {
		q.Sampling = &simreq.Sampling{
			IntervalEpochs: rf.sampleInterval,
			DetailEpochs:   rf.sampleDetail,
			WarmupEpochs:   rf.sampleWarmup,
			Warming:        rf.warming,
		}
	}
	return q
}

// resolve lowers the flags onto one simreq.Request and resolves it, so
// every invalid flag comes back in one simreq.FieldErrors before any
// graph or trace is built. Under -matrix an explicit -prefetcher is a
// comma-separated list restricting the pfx experiment: the request is
// resolved once per entry, their errors merged, and the entries come
// back as pfx.
func (c cliFlags) resolve() (rv simreq.Resolved, pfx []core.PrefetcherKind, err error) {
	q := c.request()
	list := c.matrix != "" && c.pfSet
	names := []string{c.pf}
	if list {
		names = strings.Split(c.pf, ",")
	}
	var errs simreq.FieldErrors
	for _, name := range names {
		q.Prefetcher = strings.TrimSpace(name)
		r, err := q.Resolve()
		if err != nil {
			// The entries share every other field, so keep each
			// distinct field error once.
			var fe simreq.FieldErrors
			if !errors.As(err, &fe) {
				return simreq.Resolved{}, nil, err
			}
			for _, f := range fe {
				if !slices.Contains(errs, f) {
					errs = append(errs, f)
				}
			}
			continue
		}
		rv = r
		if list {
			pfx = append(pfx, rv.Prefetcher)
		}
	}
	if errs != nil {
		return simreq.Resolved{}, nil, errs
	}
	return rv, pfx, nil
}

// machine is the simulated machine and drive options for the resolved
// flags: exp.MachineOf, plus the CLI-only -llc override.
func (rf runFlags) machine(rv simreq.Resolved) (sim.Config, sim.Options) {
	cfg, opts := exp.MachineOf(rv)
	if rf.llcKB > 0 {
		cfg.LLC.SizeBytes = rf.llcKB << 10
	}
	return cfg, opts
}

// runMatrix regenerates the requested experiment tables on a suite whose
// base machine is the resolved flags. Table bytes are deterministic:
// every table comes back in table order no matter how the scheduler
// interleaved the simulations, so -jobs N output diffs clean against
// -jobs 1 (the CI smoke job relies on this), with or without sampling.
func runMatrix(c cliFlags, rv simreq.Resolved, pfx []core.PrefetcherKind) error {
	if len(c.singleRun) > 0 {
		return fmt.Errorf("%s: single-run flags cannot be used with -matrix", strings.Join(c.singleRun, ", "))
	}
	s := exp.NewSuite(rv.Scale)
	s.Jobs = c.jobs
	s.Base = rv
	s.Prefetchers = pfx
	if c.telemDir != "" {
		if err := os.MkdirAll(c.telemDir, 0o755); err != nil {
			return err
		}
		s.TelemetryDir = c.telemDir
	}
	if c.benchmarks != "" {
		for _, name := range strings.Split(c.benchmarks, ",") {
			b, err := workload.ParseBenchmark(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	if c.verbose {
		// The suite serializes Progress calls, so writing straight to
		// stderr is safe under -jobs > 1.
		s.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	var out io.Writer = os.Stdout
	if c.outPath != "" {
		f, err := os.Create(c.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var exps []exp.Experiment
	if c.matrix == "all" {
		exps = exp.Experiments
	} else {
		for _, id := range strings.Split(c.matrix, ",") {
			e, err := exp.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		text, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, text)
	}
	return nil
}

func run(rf runFlags, rv simreq.Resolved) error {
	var newSink func(io.Writer) telemetry.Sink
	switch rf.telemFormat {
	case "":
	case "jsonl":
		newSink = func(w io.Writer) telemetry.Sink { return telemetry.NewJSONLSink(w) }
	case "csv":
		newSink = func(w io.Writer) telemetry.Sink { return telemetry.NewCSVSink(w) }
	default:
		return fmt.Errorf("unknown telemetry format %q (want jsonl or csv)", rf.telemFormat)
	}

	// In -json mode stdout carries only the JSON summary; everything
	// human-readable moves to stderr so result diffs across runs and
	// modes stay clean.
	info := io.Writer(os.Stdout)
	if rf.asJSON {
		info = os.Stderr
	}

	var peak *peakTracker
	if rf.footprint != "" {
		peak = trackPeakHeap()
	}

	cfg, opts := rf.machine(rv)
	var simulate func(sim.Options) (*sim.Result, error)
	var events int64
	var err error
	if rf.stream {
		simulate, err = prepareStream(rf, rv, cfg, info)
	} else {
		simulate, events, err = prepareTrace(rf, rv, cfg, info)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(info, "simulating on %dKB/%dKB/%dKB hierarchy with %v...\n",
		cfg.L1.SizeBytes>>10, cfg.L2.SizeBytes>>10, cfg.LLC.SizeBytes>>10, cfg.Prefetcher)
	var r *sim.Result
	if newSink != nil {
		r, err = runWithTelemetry(rf, rv, newSink, simulate, opts, info)
	} else {
		r, err = simulate(opts)
	}
	if err != nil {
		return err
	}

	if rf.footprint != "" {
		if err := writeFootprint(rf, rv, r, events, peak.stop()); err != nil {
			return err
		}
		fmt.Fprintf(info, "footprint written to %s\n", rf.footprint)
	}
	if rf.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r.Summarize())
	}
	printResult(r)
	return nil
}

// customOptions is the trace recipe for a -graphfile run: the request's
// cores and its scale's event budget, with the benchmarks' two PageRank
// iterations.
func customOptions(rv simreq.Resolved) trace.Options {
	return trace.Options{Cores: rv.Cores, MaxEvents: rv.Scale.MaxEvents(), PRIters: 2}
}

// prepareTrace generates (or loads) the full trace and returns the
// simulation over it, plus the event count for the footprint report.
func prepareTrace(rf runFlags, rv simreq.Resolved, cfg sim.Config, info io.Writer) (func(sim.Options) (*sim.Result, error), int64, error) {
	var tr *trace.Trace
	var err error
	if rf.graphEL != "" {
		var g *graph.CSR
		if g, err = loadGraph(rf.graphEL, rv.Benchmark.Algo, info); err == nil {
			tr, err = droplet.TraceOf(rv.Benchmark.Algo, g, customOptions(rv))
		}
	} else {
		fmt.Fprintf(info, "generating trace for %s at %s scale...\n", rv.Benchmark, rv.Scale)
		tr, err = workload.GenerateTrace(rv.Benchmark, rv.Scale, rv.Cores)
	}
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(info, "  %d events, %d instructions, %d cores\n", tr.Events(), tr.Instructions, tr.NumCores())
	return func(opts sim.Options) (*sim.Result, error) {
		return sim.Simulate(context.Background(), tr, cfg, opts)
	}, tr.Events(), nil
}

// prepareStream sets up the pull-based generator and returns the
// simulation over it.
func prepareStream(rf runFlags, rv simreq.Resolved, cfg sim.Config, info io.Writer) (func(sim.Options) (*sim.Result, error), error) {
	var st *trace.Stream
	var err error
	if rf.graphEL != "" {
		var g *graph.CSR
		if g, err = loadGraph(rf.graphEL, rv.Benchmark.Algo, info); err == nil {
			st, err = droplet.StreamOf(rv.Benchmark.Algo, g, customOptions(rv), trace.StreamConfig{})
		}
	} else {
		fmt.Fprintf(info, "streaming trace for %s at %s scale...\n", rv.Benchmark, rv.Scale)
		st, err = workload.GenerateStream(rv.Benchmark, rv.Scale, rv.Cores, trace.StreamConfig{})
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "  window %d events/core, %d cores\n", st.WindowEvents(), st.NumCores())
	return func(opts sim.Options) (*sim.Result, error) {
		return sim.SimulateStream(context.Background(), st, cfg, opts)
	}, nil
}

// loadGraph reads a custom edge-list graph.
func loadGraph(path string, a workload.Algorithm, info io.Writer) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f, graph.BuildOptions{Weighted: a.Weighted(), Dedupe: true, DropSelfLoops: true})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "loaded %s: %v\n", path, graph.ComputeDegreeStats(g))
	return g, nil
}

// runName names the run in its footprint report and telemetry: the
// registry benchmark, or <algo>-<path> for a -graphfile run.
func runName(rf runFlags, rv simreq.Resolved) string {
	if rf.graphEL != "" {
		return fmt.Sprintf("%v-%s", rv.Benchmark.Algo, rf.graphEL)
	}
	return rv.Benchmark.String()
}

// runWithTelemetry runs simulate under opts with an epoch collector
// streaming to a sink built by newSink.
func runWithTelemetry(rf runFlags, rv simreq.Resolved, newSink func(io.Writer) telemetry.Sink, simulate func(sim.Options) (*sim.Result, error), opts sim.Options, info io.Writer) (*sim.Result, error) {
	outPath := rf.telemOut
	if outPath == "" {
		outPath = "telemetry." + rf.telemFormat
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	opts.Observer = telemetry.NewCollector(newSink(f), telemetry.RunMeta{
		Benchmark: runName(rf, rv),
		Kernel:    rv.Benchmark.Algo.String(),
	})
	r, simErr := simulate(opts)
	if closeErr := f.Close(); simErr == nil {
		simErr = closeErr
	}
	if simErr != nil {
		return nil, simErr
	}
	fmt.Fprintf(info, "telemetry written to %s\n", outPath)
	return r, nil
}

// ------------------------------------------------------------- footprint

// peakTracker samples runtime.MemStats.HeapInuse on a ticker and retains
// the maximum (plus a final read at stop).
type peakTracker struct {
	mu   sync.Mutex
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func trackPeakHeap() *peakTracker {
	t := &peakTracker{done: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.sample()
			case <-t.done:
				return
			}
		}
	}()
	return t
}

func (t *peakTracker) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	if ms.HeapInuse > t.peak {
		t.peak = ms.HeapInuse
	}
	t.mu.Unlock()
}

// stop halts the sampler and returns the peak HeapInuse in bytes.
func (t *peakTracker) stop() uint64 {
	close(t.done)
	t.wg.Wait()
	t.sample()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// footprintReport is the -footprint JSON schema (the CI footprint job
// uploads it as an artifact and asserts PeakHeapInuse against its
// ceiling).
type footprintReport struct {
	Benchmark     string `json:"benchmark"`
	Scale         string `json:"scale"`
	Stream        bool   `json:"stream"`
	Cores         int    `json:"cores"`
	Events        int64  `json:"events,omitempty"` // materialized mode only
	Instructions  int64  `json:"instructions"`
	Cycles        int64  `json:"cycles"`
	PeakHeapInuse uint64 `json:"peak_heap_inuse"`
}

// writeFootprint writes the report for the run rv resolved to, so a
// defaulted flag (-cores 0) reports the value the run used.
func writeFootprint(rf runFlags, rv simreq.Resolved, r *sim.Result, events int64, peak uint64) error {
	rep := footprintReport{
		Benchmark:     runName(rf, rv),
		Scale:         rv.Scale.String(),
		Stream:        rf.stream,
		Cores:         rv.Cores,
		Events:        events,
		Instructions:  r.Instructions,
		Cycles:        r.Cycles,
		PeakHeapInuse: peak,
	}
	f, err := os.Create(rf.footprint)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(r *sim.Result) {
	fmt.Printf("\ncycles        %d\n", r.Cycles)
	fmt.Printf("instructions  %d\n", r.Instructions)
	fmt.Printf("IPC           %.3f\n", r.IPC())
	fmt.Printf("LLC MPKI      %.2f\n", r.LLCMPKI())
	fmt.Printf("BPKI          %.2f\n", r.BPKI())
	fmt.Printf("bandwidth     %.1f%%\n", r.BandwidthUtilization()*100)
	fmt.Printf("L2 hit rate   %.1f%%\n", r.L2HitRate()*100)
	fmt.Printf("MLP (DRAM)    %.2f\n", r.MLP())

	if s := r.Sampled; s != nil {
		fmt.Printf("\nsampled (interval %d, detail %d, warmup %d, warming %v):\n",
			s.IntervalEpochs, s.DetailEpochs, s.WarmupEpochs, s.Warming)
		fmt.Printf("  extrapolated cycles  %d\n", s.ExtrapolatedCycles)
		fmt.Printf("  CPI                  %.3f (rel stderr %.2f%%)\n", s.CPI, s.CPIRelStderr*100)
		fmt.Printf("  windows              %d (%.2f%% of instructions)\n", s.Windows, s.SampledFraction*100)
	}

	base, byLevel := r.CycleStack()
	fmt.Printf("\ncycle stack:  base %.1f%%", base*100)
	for l := 0; l < memsys.NumLevels; l++ {
		fmt.Printf("  %v %.1f%%", memsys.Level(l), byLevel[l]*100)
	}
	fmt.Println()

	f := r.ServicedFractions()
	fmt.Println("\nserviced by (per data type):")
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		fmt.Printf("  %-14v", mem.DataType(dt))
		for l := 0; l < memsys.NumLevels; l++ {
			fmt.Printf("  %v %5.1f%%", memsys.Level(l), f[dt][l]*100)
		}
		fmt.Println()
	}

	for _, dt := range []mem.DataType{mem.Structure, mem.Property} {
		if acc, ok := r.PrefetchAccuracy(dt); ok {
			fmt.Printf("%-9v prefetch accuracy  %.1f%%\n", dt, acc*100)
		}
	}
	if m := r.Attachment.MPP; m != nil {
		s := m.Stats()
		fmt.Printf("MPP: %d triggers, %d addresses, %d LLC copies, %d DRAM prefetches, %d dropped\n",
			s.Triggers, s.AddrsGenerated, s.CopiedFromLLC, s.IssuedToDRAM, s.DroppedVABFull+s.DroppedFault)
	}
	if p := r.Attachment.Pickle; p != nil {
		s := p.Stats()
		fmt.Printf("Pickle: %d triggers, %d issued, %d dropped (window %d, degree %d)\n",
			s.Triggers, s.Issued, s.DroppedWindow+s.DroppedDegree, s.DroppedWindow, s.DroppedDegree)
	}
}
