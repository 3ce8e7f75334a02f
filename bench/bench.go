// Package bench is droplet's benchmark. It runs one workload per process —
// a simulation on a materialized skewed graph, a streamed simulation on a
// road mesh, an experiment table, and the HTTP service on its cold and
// warm paths — and reports the end-to-end metrics a user of each sees. A
// traced run of the same workload instead splits its host time by layer
// (graph, trace, sim, cpu, memsys, cache, dram, prefetch, exp, simreq,
// serve), timing calls into each layer's public functions from outside
// the program. README.md lists every metric and why each workload exists.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"droplet/internal/graph"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the result of one run, printed as the last line of output.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Config selects one run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is how long the measured phase of an untraced run lasts; it
	// always completes at least one operation.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// Toy shrinks every input to a size that runs in about a second, for
	// tests. Outputs are then not compared with the pinned digests.
	Toy bool
	// ServeBin is the droplet-serve binary the service workloads start;
	// empty serves in-process instead (tests).
	ServeBin string
	// OutDir receives the spans of a traced run.
	OutDir string
	// Log receives diagnostics; nil discards them.
	Log io.Writer
}

// Workloads lists the benchmark's workloads in report order.
var Workloads = []string{"pr-kron-droplet", "bfs-road-stream", "fig11-table", "serve-cold", "serve-warm"}

// An untraced run builds its inputs at least setupReps times, and more
// when that takes less than setupMin, up to maxSetupReps; setup_s is the
// median build (normalized as in ref.go), and the last build is the one
// measured. A build of a few milliseconds needs the extra repetitions for
// a steady median.
const (
	setupReps    = 3
	setupMin     = time.Second
	maxSetupReps = 40
)

// load is one workload: a set of inputs and the operation the benchmark
// times on them.
type load interface {
	// setup builds the inputs after close; last marks the build the run
	// goes on to measure.
	setup(r *runner, last bool) error
	// pid is the process doing the work; it is valid after setup.
	pid() int
	// measure repeats the operation until r's deadline, recording each
	// latency with r.op and each wrong output with r.fail.
	measure(r *runner) error
	// traced runs the traced pass into ls.
	traced(r *runner, ls *layers) error
	// close drops the inputs and stops every process the workload
	// started.
	close() error
}

func newLoad(cfg Config) (load, error) {
	switch cfg.Workload {
	case "pr-kron-droplet":
		return newPRKron(cfg), nil
	case "bfs-road-stream":
		return newBFSRoad(cfg), nil
	case "fig11-table":
		return newFig11(cfg), nil
	case "serve-cold":
		return newServe(cfg, false), nil
	case "serve-warm":
		return newServe(cfg, true), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", cfg.Workload, Workloads)
}

// runner carries one run's bookkeeping.
type runner struct {
	cfg       Config
	log       io.Writer
	deadline  time.Time
	ops       timing // per-operation latency
	attempted int
	failed    int
}

// op records one completed operation.
func (r *runner) op(d time.Duration) {
	r.ops.add(d)
	r.attempted++
}

// more reports whether the measured phase should start another
// operation: always until the first completes, then until the deadline.
// Between operations it times the reference loop when a block is due.
func (r *runner) more() bool {
	r.ops.tick()
	return len(r.ops.raw) == 0 || time.Now().Before(r.deadline)
}

// fail records one wrong output.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "FAIL %s: %s\n", r.cfg.Workload, fmt.Sprintf(format, args...))
}

// seed derives an independent input seed for one use of the run's seed.
func (r *runner) seed(use uint64) uint64 {
	return graph.NewRNG(r.cfg.Seed ^ use*0x51_7cc1_b727_220a).Uint64()
}

// Run executes one run of cfg.Workload. Wrong outputs show in the report;
// an error means the run could not complete.
func Run(cfg Config) (Report, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	w, err := newLoad(cfg)
	if err != nil {
		return Report{}, err
	}
	r := &runner{cfg: cfg, log: cfg.Log}
	var rep Report
	if cfg.Trace {
		rep, err = r.runTraced(w)
	} else {
		rep, err = r.runUntraced(w)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err == nil && r.attempted == 0 {
		err = fmt.Errorf("bench: %s attempted no operation", cfg.Workload)
	}
	return rep, err
}

func (r *runner) report(metrics map[string]Metric) Report {
	return Report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
}

// runUntraced builds the inputs several times, then measures for
// cfg.Seconds. It reports the operations' latency and the builds' time,
// each normalized by the reference loop timed between them (ref.go), and
// the peak memory the work needs, read from VmHWM (peakRSS).
func (r *runner) runUntraced(w load) (Report, error) {
	ref := newRefLoop().run
	setups := timing{ref: ref}
	var buildPeaks []float64
	setups.begin()
	for i, n := 0, setupReps; i < n; i++ {
		if err := w.close(); err != nil {
			return Report{}, err
		}
		if err := freshPeak(os.Getpid()); err != nil {
			return Report{}, err
		}
		t0 := time.Now()
		if err := w.setup(r, i == n-1); err != nil {
			return Report{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setups.add(d)
		peak, err := peakRSSMiB(w.pid())
		if err != nil {
			return Report{}, err
		}
		buildPeaks = append(buildPeaks, peak)
		if i == 0 {
			n = max(setupReps, min(maxSetupReps, int(setupMin/d)+1))
		}
		// Each build is a block of its own: a build of a few milliseconds
		// varies too much for a few blocks of them to give a steady median.
		setups.flush()
	}
	r.ops = timing{ref: ref}
	// A warm request waits on the network stack and the HTTP server, not
	// on simulation, so its reference is an echo of it (README.md, "Host
	// noise and spreads").
	var echo *echoLoop
	if s, ok := w.(*serveLoad); ok && s.warmPhase {
		var err error
		if echo, err = newEchoLoop(s.warmBody[0], s.warmResp[0]); err != nil {
			return Report{}, err
		}
		r.ops.ref = echo.run
	}
	r.ops.begin()
	r.deadline = time.Now().Add(time.Duration(r.cfg.Seconds * float64(time.Second)))
	if err := w.measure(r); err != nil {
		return Report{}, err
	}
	op, setup := r.ops.normalized(midMean), setups.normalized(median)
	if echo != nil {
		if err := echo.close(); err != nil {
			return Report{}, fmt.Errorf("echo reference: %w", err)
		}
	}
	peak, err := r.peakRSS(w, buildPeaks)
	if err != nil {
		return Report{}, err
	}
	lat := r.ops.raw
	if len(lat) <= 100 {
		fmt.Fprintf(r.log, "%s seed %d: setups (ms) %.1f; operations (ms) %.1f\n", r.cfg.Workload, r.cfg.Seed, setups.raw, lat)
	}
	refs := r.ops.refs
	fmt.Fprintf(r.log, "%s seed %d: %d operations in %d blocks, p10 %.4g ms, p50 %.4g ms, p90 %.4g ms; reference p10 %.4g ms, p50 %.4g ms, p90 %.4g ms; median build %.4g ms, its reference %.4g ms\n",
		r.cfg.Workload, r.cfg.Seed, len(lat), len(r.ops.ratios), percentile(lat, 10), median(lat), percentile(lat, 90),
		percentile(refs, 10), median(refs), percentile(refs, 90), median(setups.raw), median(setups.refs))
	return r.report(map[string]Metric{
		"op_norm_ms":   {millis(op), "ms"},
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mib": {peak, "MiB"},
	}), nil
}

// memProbes is how many operations a workload repeats after its measured
// phase to read their peak memory.
const memProbes = 3

// freshPeak restarts the VmHWM of process pid, so that the peak read next
// belongs to the work done in between. When pid is this process, it first
// returns the memory freed so far to the operating system.
func freshPeak(pid int) error {
	if pid == os.Getpid() {
		debug.FreeOSMemory()
	}
	return resetPeakRSS(pid)
}

// peakRSS is the peak memory of the run's work: the larger of the least
// build peak and the least peak of memProbes further operations, each
// started from freshPeak. A build or an operation needs at least its
// least peak; how much garbage the collector lets pile up above it varies
// from one repetition to the next by up to 25%. A service cannot be made
// to return its freed memory, so its operation peaks also hold whatever
// it kept from the measured phase: a leak shows there.
func (r *runner) peakRSS(w load, buildPeaks []float64) (float64, error) {
	var opPeaks []float64
	for range memProbes {
		if err := freshPeak(w.pid()); err != nil {
			return 0, err
		}
		// A runner whose deadline has passed runs exactly one operation.
		one := &runner{cfg: r.cfg, log: r.log, deadline: time.Now()}
		if err := w.measure(one); err != nil {
			return 0, err
		}
		r.attempted += one.attempted
		r.failed += one.failed
		peak, err := peakRSSMiB(w.pid())
		if err != nil {
			return 0, err
		}
		opPeaks = append(opPeaks, peak)
	}
	fmt.Fprintf(r.log, "peak RSS of builds %.1f MiB, of probe operations %.1f MiB\n", buildPeaks, opPeaks)
	return max(slices.Min(buildPeaks), slices.Min(opPeaks)), nil
}

// runTraced builds the inputs once and runs the workload's traced pass,
// writing its spans to OutDir/<workload>.spans.jsonl.
func (r *runner) runTraced(w load) (Report, error) {
	ls := &layers{sp: newSpans(), tc: calibrateTimer(1 << 18), jobs: 1}
	setup := ls.sp.begin("setup", "", 0)
	if err := w.setup(r, true); err != nil {
		return Report{}, fmt.Errorf("setup: %w", err)
	}
	ls.sp.end(setup)
	if err := w.traced(r, ls); err != nil {
		return Report{}, err
	}
	ls.logSplit(r.log)
	if err := ls.sp.write(filepath.Join(r.cfg.OutDir, r.cfg.Workload+".spans.jsonl")); err != nil {
		return Report{}, err
	}
	return r.report(ls.metrics()), nil
}
