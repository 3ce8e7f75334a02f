// Package sim assembles the full simulated machine — N out-of-order cores
// with private L1/L2, a shared inclusive LLC, one memory controller, DRAM,
// and an optional prefetch configuration — and drives a multi-core trace
// through it, interleaving cores in local-time order and honoring the
// trace's barrier synchronization.
package sim

import (
	"context"
	"fmt"
	"math"

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
)

// Config describes a complete machine.
type Config struct {
	Cores      int
	CPU        cpu.Config
	L1         cache.Config
	L2         cache.Config
	LLC        cache.Config
	NoL2       bool
	DRAM       dram.Config
	Prefetcher core.PrefetcherKind
	Prefetch   core.Options
}

// DefaultConfig returns the paper's Table I baseline: 4 cores, 128-entry
// ROB, 32KB L1D, 256KB L2, 8MB 16-way LLC, DDR3 behind a single MC.
func DefaultConfig() Config {
	return Config{
		Cores:    4,
		CPU:      cpu.DefaultConfig(),
		L1:       cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4},
		L2:       cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LatencyTag: 3, LatencyData: 8},
		LLC:      cache.Config{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LatencyTag: 10, LatencyData: 30},
		DRAM:     dram.DefaultConfig(),
		Prefetch: core.DefaultOptions(),
	}
}

// memConfig lowers Config to the hierarchy's view.
func (c Config) memConfig() memsys.Config {
	return memsys.Config{
		Cores: c.Cores,
		L1:    c.L1,
		L2:    c.L2,
		LLC:   c.LLC,
		NoL2:  c.NoL2,
		DRAM:  c.DRAM,
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Config       Config
	Cycles       int64 // wall time: max over cores
	Instructions int64 // instructions actually dispatched (MPKI/BPKI denominator)
	CoreStats    []cpu.Stats
	Hier         *memsys.Hierarchy
	Attachment   *core.Attachment
	// Sampled carries the extrapolation of a sampled run (nil otherwise).
	// When set, Cycles is the raw fast-forward-inclusive clock and
	// Sampled.ExtrapolatedCycles is the full-run estimate.
	Sampled *SampleReport
}

// DefaultEpochCycles is the telemetry epoch granularity used when
// Options.EpochCycles is zero.
const DefaultEpochCycles = 100_000

// Options tunes Simulate beyond the machine Config. The zero value is
// equivalent to Run.
type Options struct {
	// Observer, when non-nil, is attached to the machine before the first
	// step and pulled at every epoch boundary.
	Observer telemetry.Observer
	// EpochCycles is the epoch granularity in core cycles (defaults to
	// DefaultEpochCycles). Only consulted by observed runs: those with an
	// Observer, Progress, Sampling, or a cancellable context.
	EpochCycles int64
	// Progress, when non-nil, is called at every epoch boundary with the
	// elected core's clock — a cheap liveness signal for long runs.
	Progress func(cycle int64)
	// Sampling enables SMARTS-style interval sampling (zero disables).
	Sampling Sampling
}

func (o Options) validate() error {
	if o.EpochCycles < 0 {
		return fmt.Errorf("sim: negative epoch granularity %d", o.EpochCycles)
	}
	return o.Sampling.Validate()
}

// Run simulates tr on a machine built from cfg.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	return Simulate(context.Background(), tr, cfg, Options{})
}

// Simulate runs tr on a machine built from cfg, honoring ctx
// cancellation and the observer/progress hooks in opts. With a zero
// Options and a non-cancellable context it takes exactly the same
// zero-overhead drive path as Run; observers never change the executed
// step sequence, so the returned Result is identical with telemetry on
// or off.
func Simulate(ctx context.Context, tr *trace.Trace, cfg Config, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores != tr.NumCores() {
		return nil, fmt.Errorf("sim: machine has %d cores but trace has %d streams", cfg.Cores, tr.NumCores())
	}
	h, att, cores, err := build(cfg, tr.Layout, func(i int, port cpu.MemPort) *cpu.Core {
		return cpu.New(i, cfg.CPU, port, tr.Source(i), tr.DepSpan)
	})
	if err != nil {
		return nil, err
	}
	return driveAndCollect(ctx, cfg, h, att, cores, opts)
}

// SimulateStream runs the pull-based trace generator st on a machine
// built from cfg — the streaming twin of Simulate. The stream is started
// (idempotently) and torn down on every exit path; peak trace memory is
// the per-core window instead of the full event trace.
func SimulateStream(ctx context.Context, st *trace.Stream, cfg Config, opts Options) (*Result, error) {
	defer st.Stop() // a no-op unless the stream was started
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores != st.NumCores() {
		return nil, fmt.Errorf("sim: machine has %d cores but stream has %d sources", cfg.Cores, st.NumCores())
	}
	h, att, cores, err := build(cfg, st.Layout(), func(i int, port cpu.MemPort) *cpu.Core {
		st.Start() // a streaming core pulls its first batch when built
		return cpu.New(i, cfg.CPU, port, st.Source(i), st.DepSpan())
	})
	if err != nil {
		return nil, err
	}
	return driveAndCollect(ctx, cfg, h, att, cores, opts)
}

// build assembles the machine cfg describes over the address-space
// layout lay: the memory hierarchy, the prefetch attachment, and one
// core per stream, which newCore builds over the hierarchy's port. Both
// trace modes build each core with cpu.New from the trace's per-core
// source and its dependency span, so every completion ring is as small
// as the kernel's longest producer-to-consumer link allows. An invalid
// core config is an error here, before anything is built, so cpu.New's
// panic on one is never reached.
func build(cfg Config, lay *trace.Layout, newCore func(i int, port cpu.MemPort) *cpu.Core) (*memsys.Hierarchy, *core.Attachment, []*cpu.Core, error) {
	if err := cfg.CPU.Validate(); err != nil {
		return nil, nil, nil, err
	}
	h, err := memsys.New(cfg.memConfig(), lay.AS)
	if err != nil {
		return nil, nil, nil, err
	}
	att, err := core.Attach(cfg.Prefetcher, h, lay, cfg.Prefetch)
	if err != nil {
		return nil, nil, nil, err
	}
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		cores[i] = newCore(i, h)
	}
	return h, att, cores, nil
}

// driveAndCollect installs the hooks opts asks for, drives the cores to
// completion, and folds the machine into a Result. Options must already
// be validated. A run that nothing observes — no Observer, no Progress,
// no sampling, and a context that cannot be cancelled — gets no epoch
// boundaries at all.
func driveAndCollect(ctx context.Context, cfg Config, h *memsys.Hierarchy, att *core.Attachment, cores []*cpu.Core, opts Options) (*Result, error) {
	var epoch int64
	if opts.Observer != nil || opts.Progress != nil || ctx.Done() != nil || opts.Sampling.Enabled() {
		epoch = opts.EpochCycles
		if epoch == 0 {
			epoch = DefaultEpochCycles
		}
	}
	var onEpoch func(int64)
	switch {
	case opts.Observer != nil && opts.Progress != nil:
		obs, prog := opts.Observer, opts.Progress
		onEpoch = func(cyc int64) { obs.Epoch(cyc); prog(cyc) }
	case opts.Observer != nil:
		onEpoch = opts.Observer.Epoch
	case opts.Progress != nil:
		onEpoch = opts.Progress
	}
	if opts.Observer != nil {
		if err := opts.Observer.Attach(telemetry.Sources{Cores: cores, Hier: h, Att: att, EpochCycles: epoch}); err != nil {
			return nil, err
		}
	}
	var acc *sampleAcc
	if opts.Sampling.Enabled() {
		acc = newSampleAcc(opts.Sampling.withDefaults(), epoch, len(cores), onEpoch != nil)
	}
	if err := drive(ctx, cores, epoch, onEpoch, acc); err != nil {
		return nil, err
	}

	res := collect(cfg, h, att, cores)
	if acc != nil {
		res.Sampled = acc.report(res.CoreStats, res.Instructions, res.Cycles)
	}
	if opts.Observer != nil {
		if err := opts.Observer.Finish(res.Cycles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// collect folds the finished machine into a Result.
func collect(cfg Config, h *memsys.Hierarchy, att *core.Attachment, cores []*cpu.Core) *Result {
	res := &Result{
		Config:     cfg,
		CoreStats:  make([]cpu.Stats, cfg.Cores),
		Hier:       h,
		Attachment: att,
	}
	for i, c := range cores {
		s := *c.Stats()
		res.CoreStats[i] = s
		if s.Cycles > res.Cycles {
			res.Cycles = s.Cycles
		}
		res.Instructions += s.Instructions
	}
	return res
}

// drive runs every core to the end of its stream under the one
// scheduling rule every simulated number rests on: elect the runnable
// core with the (clock, index)-minimum and step it; once every
// unfinished core waits at a barrier, release them all at the latest
// arrival. Instead of re-electing after every event, a quantum keeps
// stepping the winner until it finishes, parks at a barrier, or reaches
// the stop clock elect returned: a step never moves another core's
// clock, barrier, or done state, so the winner would have won every
// re-election up to there (the per-event oracle lives in the tests).
// Each quantum is a long single-core, single-stream run, which is also
// what the host CPU's branch predictors and caches want to see.
//
// epoch > 0 marks an observed run. Its quanta also stop at the next
// epoch boundary, where onEpoch (if non-nil) fires with the elected
// core's clock, and ctx is checked once per election. Stopping early
// only re-elects the same core, so boundaries never change the step
// sequence. A non-nil acc adds sampling's per-election decision (see
// sampleAcc.plan) and its barrier and finish hooks.
//
//droplet:hotpath
func drive(ctx context.Context, cores []*cpu.Core, epoch int64, onEpoch func(int64), acc *sampleAcc) error {
	next := epoch // the next epoch boundary
	for {
		if epoch > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		i, clk, stop := elect(cores)
		switch i {
		case allDone:
			if acc != nil {
				acc.finish(cores)
			}
			return nil
		case allParked:
			if acc != nil {
				acc.recordBarrier(cores)
			}
			releaseBarrier(cores)
			continue
		}
		if epoch > 0 {
			// Elected clocks never decrease (a step advances only its own
			// core, and a release lifts every parked core to the latest
			// clock), so next is always the first boundary after clk.
			if clk >= next {
				if onEpoch != nil {
					onEpoch(clk)
				}
				next = (clk/epoch + 1) * epoch
			}
			stop = min(stop, next)
		}
		c := cores[i]
		if acc != nil {
			var fast bool
			if stop, fast = acc.plan(i, c, clk, stop, next); fast {
				for !c.Done() && !c.AtBarrier() && c.Clock() < stop {
					c.StepFast(acc.warm)
				}
				continue
			}
		}
		for !c.Done() && !c.AtBarrier() && c.Clock() < stop {
			c.Step()
		}
	}
}

// Sentinels elect returns in place of a core index.
const (
	allDone   = -1 // every core has finished its stream
	allParked = -2 // every unfinished core waits at a barrier
)

// elect returns the runnable core with the (clock, index)-lexicographic
// minimum, its clock, and the stop clock below which it keeps winning
// re-election: the runner-up's clock, plus 1 when the winner has the
// lower index (ties go to the lower index), or MaxInt64 when no other
// core is runnable. With no runnable core it returns allDone or
// allParked instead of an index.
//
//droplet:hotpath
func elect(cores []*cpu.Core) (idx int, clk, stop int64) {
	best, runner := -1, -1
	var runnerClk int64
	live := false
	for i, c := range cores {
		if c.Done() {
			continue
		}
		live = true
		if c.AtBarrier() {
			continue
		}
		// A strict < keeps the first-seen minimum while scanning in index
		// order, and a displaced best is lexicographically below the old
		// runner-up, so it becomes the new runner-up.
		switch ck := c.Clock(); {
		case best < 0:
			best, clk = i, ck
		case ck < clk:
			runner, runnerClk = best, clk
			best, clk = i, ck
		case runner < 0 || ck < runnerClk:
			runner, runnerClk = i, ck
		}
	}
	switch {
	case best < 0 && live:
		return allParked, 0, 0
	case best < 0:
		return allDone, 0, 0
	case runner < 0:
		return best, clk, math.MaxInt64
	case best < runner:
		return best, clk, runnerClk + 1
	}
	return best, clk, runnerClk
}

// releaseBarrier opens the barrier every unfinished core is parked at,
// at the latest arrival time.
//
//droplet:hotpath
func releaseBarrier(cores []*cpu.Core) {
	var t int64
	for _, c := range cores {
		if clk := c.Clock(); clk > t {
			t = clk
		}
	}
	for _, c := range cores {
		if c.AtBarrier() {
			c.PassBarrier(t)
		}
	}
}

// IPC returns aggregate instructions per cycle across all cores.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Speedup returns base.Cycles / r.Cycles (Fig. 11's metric).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// LLCMPKI returns shared-LLC demand misses per kilo-instruction (Fig. 4a).
func (r *Result) LLCMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hier.LLC().Stats().TotalMisses()) / float64(r.Instructions) * 1000
}

// DemandMPKIByType returns LLC demand misses (DRAM-bound requests) per
// kilo-instruction, split by data type (Fig. 13).
func (r *Result) DemandMPKIByType() [mem.NumDataTypes]float64 {
	var out [mem.NumDataTypes]float64
	if r.Instructions == 0 {
		return out
	}
	for dt, v := range r.Hier.Stats().LLCDemandMissesByType {
		out[dt] = float64(v) / float64(r.Instructions) * 1000
	}
	return out
}

// BPKI returns DRAM bus accesses per kilo-instruction (Fig. 15).
func (r *Result) BPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hier.MC().Stats().Accesses()) / float64(r.Instructions) * 1000
}

// BandwidthUtilization returns the DRAM channel busy fraction (Fig. 3a).
func (r *Result) BandwidthUtilization() float64 {
	return r.Hier.MC().BandwidthUtilization(r.Cycles)
}

// L2HitRate returns the aggregate private-L2 demand hit rate (Fig. 12).
func (r *Result) L2HitRate() float64 { return r.Hier.L2HitRate() }

// MLP returns the average outstanding DRAM loads across cores.
func (r *Result) MLP() float64 {
	var sum float64
	for i := range r.CoreStats {
		sum += r.CoreStats[i].MLP()
	}
	return sum
}

// CycleStack returns the fraction of wall cycles attributed to base
// execution and to stalls on each hierarchy level (Fig. 1). Fractions are
// averaged across cores.
func (r *Result) CycleStack() (base float64, byLevel [memsys.NumLevels]float64) {
	if r.Cycles == 0 {
		return 0, byLevel
	}
	n := float64(len(r.CoreStats))
	for i := range r.CoreStats {
		s := &r.CoreStats[i]
		total := float64(s.Cycles)
		if total == 0 {
			continue
		}
		base += float64(s.BaseCycles()) / total / n
		for l := 0; l < memsys.NumLevels; l++ {
			byLevel[l] += float64(s.StallByLevel[l]) / total / n
		}
	}
	return base, byLevel
}

// PrefetchAccuracy returns useful/issued prefetches for data type dt
// (Fig. 14). The second result is false when nothing was issued.
func (r *Result) PrefetchAccuracy(dt mem.DataType) (float64, bool) {
	issued := r.Hier.Stats().PrefetchIssuedByType[dt]
	if issued == 0 {
		return 0, false
	}
	useful := r.Hier.PrefetchUseful()[dt]
	acc := float64(useful) / float64(issued)
	if acc > 1 {
		acc = 1 // late demand merges can slightly overcount usefulness
	}
	return acc, true
}

// ServicedFractions returns, per data type, the fraction of demand
// accesses serviced by each level (Fig. 7).
func (r *Result) ServicedFractions() [mem.NumDataTypes][memsys.NumLevels]float64 {
	var out [mem.NumDataTypes][memsys.NumLevels]float64
	st := r.Hier.Stats()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		var total uint64
		for l := 0; l < memsys.NumLevels; l++ {
			total += st.ServicedBy[l][dt]
		}
		if total == 0 {
			continue
		}
		for l := 0; l < memsys.NumLevels; l++ {
			out[dt][l] = float64(st.ServicedBy[l][dt]) / float64(total)
		}
	}
	return out
}

// OffChipFractionByType returns the fraction of each data type's demand
// accesses that were serviced by DRAM (Fig. 4c).
func (r *Result) OffChipFractionByType() [mem.NumDataTypes]float64 {
	var out [mem.NumDataTypes]float64
	f := r.ServicedFractions()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		out[dt] = f[dt][memsys.LevelDRAM]
	}
	return out
}
