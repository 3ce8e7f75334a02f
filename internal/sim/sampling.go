package sim

import (
	"fmt"
	"math"

	"droplet/internal/cpu"
	"droplet/internal/names"
)

// Warming selects what fast-forward epochs do to the memory hierarchy.
type Warming uint8

const (
	// WarmFunctional advances cache/TLB contents during fast-forward
	// (memsys.Warm): replacement state, dirty bits, and inclusion stay
	// exact, so measurement epochs start from the true warm state. The
	// fidelity default.
	WarmFunctional Warming = iota
	// WarmNone skips the hierarchy entirely during fast-forward; the
	// detailed warmup epochs preceding each measurement window re-warm
	// the caches instead. Much faster, and accurate whenever the warmup
	// covers the working set the measurement window touches (small for
	// the scaled quick-matrix caches).
	WarmNone
)

// String implements fmt.Stringer.
func (w Warming) String() string {
	switch w {
	case WarmFunctional:
		return "functional"
	case WarmNone:
		return "none"
	default:
		return fmt.Sprintf("Warming(%d)", uint8(w))
	}
}

// ParseWarming parses "functional" or "none"; the error lists the valid
// names.
func ParseWarming(s string) (Warming, error) {
	switch s {
	case "functional":
		return WarmFunctional, nil
	case "none":
		return WarmNone, nil
	default:
		return 0, names.Unknown("sim", "warming mode", s, []string{"functional", "none"})
	}
}

// Sampling configures SMARTS-style interval sampling: simulated time is
// cut into periods of IntervalEpochs telemetry epochs; each period runs
// WarmupEpochs detailed-but-unmeasured epochs (re-filling pipeline and —
// under WarmNone — cache state), then DetailEpochs detailed measured
// epochs, and fast-forwards the rest. The zero value disables sampling.
//
// A core's phase is a pure function of its clock (epochIdx := clk/epoch;
// pos := epochIdx % IntervalEpochs), so sampled runs are exactly as
// deterministic as full runs: no scheduler or wall-clock state leaks in.
type Sampling struct {
	// IntervalEpochs is the period length in epochs (> 0 enables).
	IntervalEpochs int
	// DetailEpochs is the number of measured epochs per period (default 1).
	DetailEpochs int
	// WarmupEpochs is the number of detailed unmeasured epochs preceding
	// each measurement window (default 1).
	WarmupEpochs int
	// Warming selects the fast-forward hierarchy treatment.
	Warming Warming
}

// Enabled reports whether sampling is on.
func (s Sampling) Enabled() bool { return s.IntervalEpochs > 0 }

func (s Sampling) withDefaults() Sampling {
	if s.DetailEpochs == 0 {
		s.DetailEpochs = 1
	}
	if s.WarmupEpochs == 0 {
		s.WarmupEpochs = 1
	}
	return s
}

// Validate checks an enabled s with its defaults applied; the zero
// value (sampling off) is valid.
func (s Sampling) Validate() error {
	if !s.Enabled() {
		return nil
	}
	s = s.withDefaults()
	if s.DetailEpochs < 0 || s.WarmupEpochs < 0 {
		return fmt.Errorf("sim: negative sampling epochs %+v", s)
	}
	if s.Warming > WarmNone {
		return fmt.Errorf("sim: unknown warming mode %d", s.Warming)
	}
	if s.IntervalEpochs < s.WarmupEpochs+s.DetailEpochs {
		return fmt.Errorf("sim: sampling interval %d shorter than warmup %d + detail %d",
			s.IntervalEpochs, s.WarmupEpochs, s.DetailEpochs)
	}
	return nil
}

// Sampling phases, in period order.
const (
	phaseWarmup  = iota // detailed, unmeasured
	phaseMeasure        // detailed, measured
	phaseFF             // fast-forward
)

// splitmix64 is the SplitMix64 finalizer: a fixed, deterministic 64-bit
// mix used to place each period's measurement block.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// phase returns the sampling phase of a core whose clock is clk.
//
// The warmup+measure block sits at a per-period offset derived by
// hashing the period index (systematic sampling with deterministic
// jitter). Strictly periodic placement aliases with the kernels'
// iteration structure — graph super-steps have strong clock
// periodicity, and sampling the same offset within every iteration can
// systematically miss (or oversample) a phase of each iteration. The
// hash keeps the phase a pure function of the clock, so sampled runs
// stay exactly as deterministic as full runs.
func (s Sampling) phase(clk, epoch int64) int {
	e := clk / epoch
	period := e / int64(s.IntervalEpochs)
	pos := e % int64(s.IntervalEpochs)
	block := int64(s.WarmupEpochs + s.DetailEpochs)
	start := int64(splitmix64(uint64(period)) % uint64(int64(s.IntervalEpochs)-block+1))
	switch {
	case pos < start || pos >= start+block:
		return phaseFF
	case pos < start+int64(s.WarmupEpochs):
		return phaseWarmup
	default:
		return phaseMeasure
	}
}

// nextDetailedClock returns the smallest epoch-aligned clock strictly
// after clk whose epoch is not fast-forward — the next point a core in
// FF must rejoin detailed scheduling. Used by sampleAcc.plan to run
// WarmNone fast-forward as one long quantum instead of re-electing at
// every epoch boundary.
func (s Sampling) nextDetailedClock(clk, epoch int64) int64 {
	for e := clk/epoch + 1; ; e++ {
		if s.phase(e*epoch, epoch) != phaseFF {
			return e * epoch
		}
	}
}

// SampleReport is the extrapolation a sampled run produces alongside the
// raw Result. The raw Result's Cycles are NOT comparable to a full run
// (fast-forwarded regions advance at ideal CPI); ExtrapolatedCycles is
// the sampled estimate of the full-run cycle count.
type SampleReport struct {
	// Echoed parameters.
	EpochCycles    int64
	IntervalEpochs int
	DetailEpochs   int
	WarmupEpochs   int
	Warming        Warming

	// Windows is the number of measurement windows that retired at least
	// one instruction.
	Windows int
	// MeasuredInstructions / MeasuredCycles are the per-core deltas
	// summed over all measurement windows. Cycles are execution cycles:
	// per-core clock advances minus barrier-release jumps, which are
	// accounted exactly (not sampled) via Stats.BarrierStallCycles.
	MeasuredInstructions int64
	MeasuredCycles       int64
	// CPI is the instruction-weighted mean execution core-cycles per
	// instruction over the measurement windows.
	CPI float64
	// CPIRelStderr is the relative standard error of the per-window CPI
	// of the straggler core (instruction-weighted); 0 when that core
	// closed fewer than two windows. The CI sampling gate treats it as
	// the run's self-reported confidence.
	CPIRelStderr float64
	// ExtrapolatedCycles estimates the full-run wall cycles by an
	// analytic barrier replay: the kernels are deterministic, so the
	// per-core instruction counts between consecutive barrier releases
	// recorded during the sampled run are exactly the full run's. The
	// replay advances each core through each inter-barrier section at
	// its measured execution CPI and synchronizes at every barrier,
	// reproducing rotating stragglers (wall = Σ over sections of the
	// section straggler's time) that a flat per-core max — graph kernels
	// shard work very unevenly — would misattribute, and keeping
	// measurement noise at the one-estimate level instead of a max over
	// independently noisy per-core totals.
	ExtrapolatedCycles int64
	// Sections is the number of inter-barrier sections the replay
	// synchronized (barrier releases observed during the run).
	Sections int
	// StragglerCore is the core whose extrapolation set
	// ExtrapolatedCycles (-1 in the degenerate no-measurement case).
	StragglerCore int
	// SampledFraction is MeasuredInstructions / Instructions.
	SampledFraction float64
	// PerCore breaks the extrapolation down by core (nil in the
	// degenerate case).
	PerCore []SampleCoreReport
}

// SampleCoreReport is one core's share of the extrapolation.
type SampleCoreReport struct {
	// Windows is the number of non-empty measurement windows the core
	// closed.
	Windows int
	// CPI is the core's measured execution CPI (the global CPI when the
	// core closed no windows).
	CPI float64
	// BarrierCycles is the core's barrier-wait total in the replay.
	BarrierCycles int64
	// ExtrapolatedCycles is the core's final clock in the replay.
	ExtrapolatedCycles int64
}

// sampleWindow accumulates one period's measurement deltas. clk is
// execution cycles: clock advance minus barrier-release jumps.
type sampleWindow struct {
	clk   int64
	instr int64
}

// sampleAcc is sampling's side of the drive loop: the per-election step
// decision plus its bookkeeping — per-core open-measurement snapshots
// and per-core, per-period accumulated windows. Windows stay separated
// by core because extrapolation is per-core (see
// SampleReport.ExtrapolatedCycles).
type sampleAcc struct {
	s     Sampling
	epoch int64
	// warm is the StepFast mode of functional-warming fast-forward;
	// capFF keeps WarmNone fast-forward quanta on epoch boundaries
	// because a callback must see every one of them.
	warm, capFF bool

	measuring []bool
	startClk  []int64
	startIns  []int64
	startBar  []int64
	period    []int
	// detailedAt is the epoch-floored clock at which the core last
	// entered detailed stepping (-1 while fast-forwarding). A
	// measurement window may only open after WarmupEpochs of continuous
	// detailed execution: a barrier release can jump a core's clock from
	// inside one period's fast-forward straight into a later period's
	// measure phase, and under WarmNone the hierarchy would still hold
	// pre-fast-forward state — windows opened there measure cold-cache
	// artifacts, which inflates barrier-heavy benchmarks (rotating-
	// straggler BFS most of all).
	detailedAt []int64

	windows [][]sampleWindow
	// aggClk/aggInstr are running per-core totals over closed windows,
	// feeding each core's measured CPI back as its fast-forward pace.
	aggClk   []int64
	aggInstr []int64

	// Barrier-replay metadata: secInstr[k*cores+i] is core i's
	// instruction count in the k-th inter-barrier section, lastInstr the
	// running snapshot, and doneBar[i] the first barrier index at which
	// core i had already finished (-1 if it ran to the end) — a finished
	// core's clock freezes and must not be jumped by later releases.
	secInstr  []int64
	lastInstr []int64
	doneBar   []int
}

func newSampleAcc(s Sampling, epoch int64, cores int, capFF bool) *sampleAcc {
	a := &sampleAcc{
		s:          s,
		epoch:      epoch,
		warm:       s.Warming == WarmFunctional,
		capFF:      capFF,
		measuring:  make([]bool, cores),
		startClk:   make([]int64, cores),
		startIns:   make([]int64, cores),
		startBar:   make([]int64, cores),
		period:     make([]int, cores),
		detailedAt: make([]int64, cores),
		windows:    make([][]sampleWindow, cores),
		aggClk:     make([]int64, cores),
		aggInstr:   make([]int64, cores),
		lastInstr:  make([]int64, cores),
		doneBar:    make([]int, cores),
	}
	for i := range a.detailedAt {
		a.detailedAt[i] = -1
		a.doneBar[i] = -1
	}
	return a
}

// plan is sampling's decision for core i, elected at clock clk with
// the drive loop's stop clock and next epoch boundary. It reconciles the
// core's measurement window with its phase and returns the quantum's
// stop clock and whether to fast-forward (StepFast) instead of Step.
func (a *sampleAcc) plan(i int, c *cpu.Core, clk, stop, boundary int64) (int64, bool) {
	phase := a.s.phase(clk, a.epoch)
	a.observe(i, c, phase)
	switch {
	case phase != phaseFF:
		return stop, false
	case a.warm:
		return stop, true
	case a.capFF:
		return boundary, true
	}
	// Under WarmNone, fast-forward touches no shared state — the core
	// only consumes its own stream and advances its own clock — so it
	// can skip straight to its next detailed-phase boundary without
	// re-electing. Dropping the intermediate elections cannot reorder
	// the detailed cores' shared-hierarchy accesses (their mutual clock
	// order is untouched) and window snapshots read only own-core
	// counters, so the Result is bit-identical to the epoch-capped
	// schedule.
	return a.s.nextDetailedClock(clk, a.epoch), true
}

// recordBarrier appends the per-core instruction deltas of the
// inter-barrier section ending at this release.
func (a *sampleAcc) recordBarrier(cores []*cpu.Core) {
	sec := len(a.secInstr) / len(cores)
	for i, c := range cores {
		ins := c.Stats().Instructions
		a.secInstr = append(a.secInstr, ins-a.lastInstr[i])
		a.lastInstr[i] = ins
		if c.Done() && a.doneBar[i] < 0 {
			a.doneBar[i] = sec
		}
	}
}

// finish closes the measurement windows still open when the run ends.
func (a *sampleAcc) finish(cores []*cpu.Core) {
	for i, c := range cores {
		if a.measuring[i] {
			a.close(i, c)
		}
	}
}

// observe reconciles core i's measurement state with its current phase.
// Called at every election (and at the end of the run), it opens a
// snapshot when the core enters a measured epoch and accumulates the
// delta when it leaves.
func (a *sampleAcc) observe(i int, c *cpu.Core, phase int) {
	if phase == phaseFF {
		a.detailedAt[i] = -1
	} else if a.detailedAt[i] < 0 {
		// Floor to the epoch boundary: the preceding fast-forward quantum
		// overshoots the boundary by a fraction of an event, and counting
		// warmup from the overshoot would leave the gate a hair short at
		// the measure-phase edge.
		a.detailedAt[i] = c.Clock() / a.epoch * a.epoch
	}
	if phase == phaseMeasure {
		warmed := c.Clock()-a.detailedAt[i] >= int64(a.s.WarmupEpochs)*a.epoch
		if !a.measuring[i] && warmed {
			a.measuring[i] = true
			a.startClk[i] = c.Clock()
			a.startIns[i] = c.Stats().Instructions
			a.startBar[i] = c.Stats().BarrierStallCycles
			a.period[i] = int(c.Clock() / a.epoch / int64(a.s.IntervalEpochs))
		}
		return
	}
	if a.measuring[i] {
		a.close(i, c)
	}
}

// close accumulates core i's open measurement into its period's window.
// Barrier-release jumps that landed inside the window are excluded: they
// are accounted exactly by Stats.BarrierStallCycles over the whole run,
// so letting them into a window would extrapolate them a second time (a
// single release jump can exceed the rest of the window's cycles by
// orders of magnitude). The core's cumulative measured CPI then becomes
// its fast-forward pace, keeping the un-measured regions' clock — and so
// barrier arrival skew and sampling-period density — realistic.
func (a *sampleAcc) close(i int, c *cpu.Core) {
	a.measuring[i] = false
	p := a.period[i]
	for p >= len(a.windows[i]) {
		a.windows[i] = append(a.windows[i], sampleWindow{})
	}
	clk := c.Clock() - a.startClk[i] - (c.Stats().BarrierStallCycles - a.startBar[i])
	instr := c.Stats().Instructions - a.startIns[i]
	a.windows[i][p].clk += clk
	a.windows[i][p].instr += instr
	a.aggClk[i] += clk
	a.aggInstr[i] += instr
	if a.aggInstr[i] > 0 {
		c.SetFastPace(float64(a.aggClk[i]) / float64(a.aggInstr[i]))
	}
}

// shrunkCPIs returns each core's measured execution CPI shrunk toward
// the global mean in proportion to its sampling variance (empirical
// Bayes: weight τ²/(τ²+σ²) with τ² the between-core variance in excess
// of noise). The barrier replay takes a max over cores at every
// section; feeding it raw per-core estimates turns estimation noise
// into phantom barrier waits whenever the true CPIs are close (balanced
// kernels like road BFS — some core's noisy CPI is always the section
// maximum, so the wall inflates by the expected maximum of the noise).
// Shrinkage suppresses differences smaller than the noise while leaving
// genuinely skewed runs (hub-heavy PR) untouched. Cores with fewer than
// two windows get the global CPI outright.
func (a *sampleAcc) shrunkCPIs(global float64) []float64 {
	cores := len(a.windows)
	cpi := make([]float64, cores)
	sig2 := make([]float64, cores)
	n := make([]int, cores)
	var totIns int64
	for i := range a.windows {
		cpi[i] = global
		if a.aggInstr[i] == 0 {
			continue
		}
		cpi[i] = float64(a.aggClk[i]) / float64(a.aggInstr[i])
		totIns += a.aggInstr[i]
		var v float64
		for _, w := range a.windows[i] {
			if w.instr == 0 {
				continue
			}
			n[i]++
			d := float64(w.clk)/float64(w.instr) - cpi[i]
			v += float64(w.instr) / float64(a.aggInstr[i]) * d * d
		}
		if n[i] > 1 {
			// Variance of the core's instruction-weighted mean.
			sig2[i] = v / float64(n[i]-1)
		}
	}
	var between, noise float64
	for i := range cpi {
		if a.aggInstr[i] == 0 {
			continue
		}
		wgt := float64(a.aggInstr[i]) / float64(totIns)
		d := cpi[i] - global
		between += wgt * d * d
		noise += wgt * sig2[i]
	}
	tau2 := between - noise
	if tau2 < 0 {
		tau2 = 0
	}
	for i := range cpi {
		if a.aggInstr[i] == 0 || n[i] < 2 {
			cpi[i] = global
			continue
		}
		if denom := tau2 + sig2[i]; denom > 0 {
			cpi[i] = (tau2*cpi[i] + sig2[i]*global) / denom
		}
	}
	return cpi
}

// report folds the accumulated windows into a SampleReport for a run
// whose final per-core counters are coreStats. fullCycles is the raw
// (non-extrapolated) cycle count, used as the degenerate answer when
// nothing was measured.
func (a *sampleAcc) report(coreStats []cpu.Stats, totalInstr, fullCycles int64) *SampleReport {
	rep := &SampleReport{
		EpochCycles:    a.epoch,
		IntervalEpochs: a.s.IntervalEpochs,
		DetailEpochs:   a.s.DetailEpochs,
		WarmupEpochs:   a.s.WarmupEpochs,
		Warming:        a.s.Warming,
		Sections:       len(a.secInstr) / len(a.windows),
		StragglerCore:  -1,
	}
	for _, ws := range a.windows {
		for _, w := range ws {
			if w.instr == 0 {
				continue
			}
			rep.Windows++
			rep.MeasuredInstructions += w.instr
			rep.MeasuredCycles += w.clk
		}
	}
	if rep.MeasuredInstructions == 0 {
		// Degenerate: the run ended before any measurement window closed
		// with retired instructions. Fall back to the raw cycles (the run
		// was fully detailed up to at most one period).
		rep.ExtrapolatedCycles = fullCycles
		if totalInstr > 0 {
			rep.CPI = float64(fullCycles) * float64(len(coreStats)) / float64(totalInstr)
			rep.SampledFraction = 1
		}
		return rep
	}
	rep.CPI = float64(rep.MeasuredCycles) / float64(rep.MeasuredInstructions)
	cpi := a.shrunkCPIs(rep.CPI)
	// Analytic barrier replay: advance each core through every
	// inter-barrier section at its (shrunk) measured execution CPI, then
	// synchronize at the release exactly as releaseBarrier does — the
	// release time is the max clock over ALL cores, and only unfinished
	// cores jump. The section instruction vectors are exact (the kernels
	// are deterministic), so all sampling error lives in the CPIs.
	cores := len(a.windows)
	clk := make([]float64, cores)
	bar := make([]float64, cores)
	for k := 0; k < rep.Sections; k++ {
		vec := a.secInstr[k*cores : (k+1)*cores]
		var t float64
		for i := range clk {
			clk[i] += float64(vec[i]) * cpi[i]
			if clk[i] > t {
				t = clk[i]
			}
		}
		for i := range clk {
			if a.doneBar[i] >= 0 && a.doneBar[i] <= k {
				continue
			}
			if t > clk[i] {
				bar[i] += t - clk[i]
				clk[i] = t
			}
		}
	}
	rep.PerCore = make([]SampleCoreReport, cores)
	for i := range clk {
		// Tail section after the last barrier.
		clk[i] += float64(coreStats[i].Instructions-a.lastInstr[i]) * cpi[i]
		est := int64(math.Round(clk[i]))
		n := 0
		for _, w := range a.windows[i] {
			if w.instr != 0 {
				n++
			}
		}
		rep.PerCore[i] = SampleCoreReport{
			Windows:            n,
			CPI:                cpi[i],
			BarrierCycles:      int64(math.Round(bar[i])),
			ExtrapolatedCycles: est,
		}
		if est > rep.ExtrapolatedCycles {
			rep.ExtrapolatedCycles = est
			rep.StragglerCore = i
		}
	}
	// Confidence: instruction-weighted spread of the straggler core's
	// per-window CPI around that core's mean.
	if s := rep.StragglerCore; s >= 0 && a.aggInstr[s] > 0 {
		coreCPI := float64(a.aggClk[s]) / float64(a.aggInstr[s])
		n := 0
		var varAcc float64
		for _, w := range a.windows[s] {
			if w.instr == 0 {
				continue
			}
			n++
			d := float64(w.clk)/float64(w.instr) - coreCPI
			varAcc += float64(w.instr) / float64(a.aggInstr[s]) * d * d
		}
		if n > 1 {
			rep.CPIRelStderr = math.Sqrt(varAcc/float64(n-1)) / coreCPI
		}
	}
	rep.SampledFraction = float64(rep.MeasuredInstructions) / float64(totalInstr)
	return rep
}
