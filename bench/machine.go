package bench

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/trace"
)

// sampleGap bounds the pseudo-random gap between timed steps: gaps are
// uniform in [1, sampleGap], so one step in (sampleGap+1)/2 = 8 is timed.
// Timed steps alternate between timing the whole Step and timing only the
// Access inside it, so each of the two is timed on 1 step in 16. Timing
// every call would double the run time (a time.Now pair costs about as
// much as a cache hit path); a random gap avoids aliasing with the
// kernels' fixed event patterns.
const sampleGap = 15

// machine is a simulated machine assembled outside package sim from the
// same public constructors sim.Simulate uses (memsys.New, core.Attach,
// cpu.NewCore / cpu.NewStreamingCore), with a counting, sampling port
// between the cores and the hierarchy. Its drive loop copies sim's
// (clock, index) election rule, so it executes exactly the step sequence
// of sim.Simulate and produces the same Result. The copy exists only
// because sim exposes no port hook; it should go once sim does.
type machine struct {
	cfg   sim.Config
	h     *memsys.Hierarchy
	att   *core.Attachment
	cores []*cpu.Core
	port  *tracedPort
	srcs  []*timedSource // per-core event sources; nil when materialized
	tc    timerCost

	rng        uint64
	steps      int64 // Step calls (every non-barrier event)
	nextSample int64 // step index of the next timed step
	timeAccess bool  // whether the next timed step times Access (else Step)
	scans      int64 // elections: passes over the cores picking the next to step
	nextScan   int64 // election index of the next timed election

	barriers   int64
	scanSpans  []time.Duration // timed elections, floor removed
	barrierNs  time.Duration   // every barrier release, timed, floor removed
	stepSpans  []time.Duration // timed Step spans, floor and source waits removed
	accTimed   int64           // steps whose Access was timed
	driveWall  time.Duration   // wall time of drive
	driveCPU   time.Duration   // CPU time of the thread running drive
	buildWall  time.Duration   // memsys.New + core.Attach + cores, source waits removed
	traceEvent int64           // events drawn from the sources (streamed runs)
}

// newCoreFunc builds core i over port: cpu.NewCore for a materialized
// trace, cpu.NewStreamingCore for a stream.
type newCoreFunc func(i int, port cpu.MemPort) *cpu.Core

// newMachine builds the machine for cfg over the layout's address space.
// win, when non-nil, records a window of core→hierarchy accesses; srcs
// are the per-core timed sources of a streamed run (nil otherwise).
func newMachine(cfg sim.Config, lay *trace.Layout, tc timerCost, win *window, srcs []*timedSource, newCore newCoreFunc) (*machine, error) {
	t0 := time.Now()
	wait0 := sourceWait(srcs)
	h, err := memsys.New(memsys.Config{
		Cores: cfg.Cores,
		L1:    cfg.L1,
		L2:    cfg.L2,
		LLC:   cfg.LLC,
		NoL2:  cfg.NoL2,
		DRAM:  cfg.DRAM,
	}, lay.AS)
	if err != nil {
		return nil, err
	}
	att, err := core.Attach(cfg.Prefetcher, h, lay, cfg.Prefetch)
	if err != nil {
		return nil, err
	}
	m := &machine{
		cfg:  cfg,
		h:    h,
		att:  att,
		port: &tracedPort{h: h, floor: tc.floor, win: win},
		srcs: srcs,
		tc:   tc,
		rng:  0x9e3779b97f4a7c15,
	}
	m.cores = make([]*cpu.Core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = newCore(i, m.port)
	}
	m.buildWall = time.Since(t0) - (sourceWait(srcs) - wait0)
	m.nextSample = m.gap()
	m.nextScan = m.gap()
	return m, nil
}

// gap draws the distance to the next timed step (xorshift64).
func (m *machine) gap() int64 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return 1 + int64(m.rng%sampleGap)
}

// drive runs every core to the end of its stream with sim's election rule:
// step the runnable core with the smallest (clock, index) and keep
// stepping it while it would win re-election against the runner-up; when
// every unfinished core waits at a barrier, release them together at the
// latest arrival time. Sampled elections and every barrier release are
// timed, which measures the loop's own time (drive self) directly. The
// goroutine keeps its thread throughout, so the thread's CPU time is the
// drive's own.
func (m *machine) drive() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	for {
		m.scans++
		timeScan := m.scans == m.nextScan
		var s0 time.Time
		if timeScan {
			m.nextScan += m.gap()
			s0 = time.Now()
		}
		best, runner := -1, -1
		var bestClk, runnerClk int64
		allDone := true
		for i, c := range m.cores {
			if c.Done() {
				continue
			}
			allDone = false
			if c.AtBarrier() {
				continue
			}
			clk := c.Clock()
			switch {
			case best < 0:
				best, bestClk = i, clk
			case clk < bestClk:
				runner, runnerClk = best, bestClk
				best, bestClk = i, clk
			case runner < 0 || clk < runnerClk:
				runner, runnerClk = i, clk
			}
		}
		if timeScan {
			m.scanSpans = append(m.scanSpans, time.Since(s0)-m.tc.floor)
		}
		if allDone {
			break
		}
		if best < 0 {
			b0 := time.Now()
			m.releaseBarrier()
			m.barrierNs += time.Since(b0) - m.tc.floor
			continue
		}
		c, tieWins := m.cores[best], best < runner
		for {
			m.step(best, c)
			if c.Done() || c.AtBarrier() {
				break
			}
			if clk := c.Clock(); runner >= 0 && (clk > runnerClk || (clk == runnerClk && !tieWins)) {
				break
			}
		}
	}
	m.driveWall = time.Since(t0)
	m.driveCPU = threadCPU() - cpu0
	for _, s := range m.srcs {
		m.traceEvent += s.events
	}
}

// releaseBarrier opens the barrier every unfinished core waits at.
func (m *machine) releaseBarrier() {
	var t int64
	for _, c := range m.cores {
		t = max(t, c.Clock())
	}
	for _, c := range m.cores {
		if c.AtBarrier() {
			c.PassBarrier(t)
		}
	}
	m.barriers++
}

// step advances core i by one event, timing the Step or its Access on
// sampled steps.
func (m *machine) step(i int, c *cpu.Core) {
	m.steps++
	if m.steps != m.nextSample {
		c.Step()
		return
	}
	m.nextSample += m.gap()
	m.timeAccess = !m.timeAccess
	if m.timeAccess {
		m.port.timeNext = true
		c.Step()
		m.port.timeNext = false
		m.accTimed++
		return
	}
	var wait0 time.Duration
	if m.srcs != nil {
		wait0 = m.srcs[i].wait
	}
	t0 := time.Now()
	c.Step()
	d := time.Since(t0) - m.tc.floor
	if m.srcs != nil {
		d -= m.srcs[i].wait - wait0 // a refill inside Step is trace time
	}
	m.stepSpans = append(m.stepSpans, d)
}

// result folds the finished machine into a sim.Result exactly as sim
// does, so Summarize digests compare byte for byte.
func (m *machine) result() *sim.Result {
	res := &sim.Result{
		Config:     m.cfg,
		CoreStats:  make([]cpu.Stats, len(m.cores)),
		Hier:       m.h,
		Attachment: m.att,
	}
	for i, c := range m.cores {
		s := *c.Stats()
		res.CoreStats[i] = s
		res.Cycles = max(res.Cycles, s.Cycles)
		res.Instructions += s.Instructions
	}
	return res
}

// split is the traced run's host time divided by layer, each part
// measured on its own: drive self (elections and barrier releases), cpu
// step self, memsys access, time spent in the stream's Next, the timers'
// own cost, and the time the drive's thread was off the CPU outside Next
// (descheduled: the stream's producers and the garbage collector share
// the host's CPUs with it). unattributed is what the parts leave of the
// drive wall time — the drive loop's per-step re-election check and the
// sampling error.
type split struct {
	wall, driveSelf, stepSelf, access, traceWait, timers, descheduled, unattributed time.Duration
	accessByLevel                                                                   [memsys.NumLevels]time.Duration
}

// maxUnattributed is the share of the drive wall time the measured parts
// should leave unexplained at most.
const maxUnattributed = 0.02

// split extrapolates the sampled spans to every call.
func (m *machine) split() (split, error) {
	if len(m.stepSpans) == 0 || len(m.scanSpans) == 0 {
		return split{}, fmt.Errorf("bench: traced run too short to sample (%d steps, %d elections)", m.steps, m.scans)
	}
	p := m.port
	s := split{wall: m.driveWall, traceWait: sourceWait(m.srcs)}
	for l, spans := range p.spans {
		s.accessByLevel[l] = typical(spans) * time.Duration(p.calls[l])
		s.access += s.accessByLevel[l]
	}
	stepAll := typical(m.stepSpans) * time.Duration(m.steps)
	s.stepSelf = stepAll - s.access
	s.driveSelf = typical(m.scanSpans)*time.Duration(m.scans) + m.barrierNs
	// Timed Steps, elections and barriers leave the part of their pair
	// outside the span in the drive loop; timed Accesses sit inside
	// untimed Steps whole.
	outside := time.Duration(len(m.stepSpans)+len(m.scanSpans)) + time.Duration(m.barriers)
	s.timers = outside*(m.tc.pair-m.tc.floor) + time.Duration(m.accTimed)*m.tc.pair
	// Off-CPU time inside Next is already in traceWait.
	s.descheduled = max(0, s.wall-m.driveCPU-s.traceWait)
	s.unattributed = s.wall - s.driveSelf - stepAll - s.traceWait - s.timers - s.descheduled
	return s, nil
}

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // Linux has supported RUSAGE_THREAD since 2.6.26
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// typical is the mean of spans, leaving out any span longer than a
// thousand times the median and 100 µs: a timed call that a preemption or
// GC pause lands in reads milliseconds, and one such span, scaled up to
// every untimed call, would swamp the estimate. The real tail stays in
// (DROPLET's refill bursts make 1 access in 1000 take 10–50 µs). What is
// left out shows up as descheduled or unattributed time.
func typical(spans []time.Duration) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := slices.Clone(spans)
	slices.Sort(s)
	cut := max(1000*s[len(s)/2], 100*time.Microsecond)
	var sum time.Duration
	n := 0
	for _, d := range s {
		if d > cut {
			break
		}
		sum += d
		n++
	}
	return sum / time.Duration(n)
}

// tracedPort sits between the cores and the hierarchy: it counts every
// Access by servicing level, times the ones the drive loop asks for, records
// the replay window, and forwards Warm so cores see the same port
// capabilities as in sim.
type tracedPort struct {
	h        *memsys.Hierarchy
	floor    time.Duration
	win      *window
	timeNext bool
	calls    [memsys.NumLevels]int64
	spans    [memsys.NumLevels][]time.Duration // timed Access spans by level, floor removed
}

// Access implements cpu.MemPort.
func (p *tracedPort) Access(core int, vaddr mem.Addr, dt mem.DataType, write bool, now int64) (int64, memsys.Level) {
	var done int64
	var lvl memsys.Level
	if p.timeNext {
		t0 := time.Now()
		done, lvl = p.h.Access(core, vaddr, dt, write, now)
		p.spans[lvl] = append(p.spans[lvl], time.Since(t0)-p.floor)
	} else {
		done, lvl = p.h.Access(core, vaddr, dt, write, now)
	}
	p.calls[lvl]++
	if p.win != nil {
		p.win.add(core, vaddr, dt, write, now, lvl)
	}
	return done, lvl
}

// Warm implements cpu.WarmPort.
func (p *tracedPort) Warm(core int, vaddr mem.Addr, dt mem.DataType, write bool, now int64) {
	p.h.Warm(core, vaddr, dt, write, now)
}

// timedSource wraps a streamed core's event source, timing every Next
// (the time the simulator waits on trace generation) and counting events.
type timedSource struct {
	src    cpu.EventSource
	wait   time.Duration
	events int64
}

// Next implements cpu.EventSource.
func (s *timedSource) Next(recycle []trace.Event) []trace.Event {
	t0 := time.Now()
	b := s.src.Next(recycle)
	s.wait += time.Since(t0)
	s.events += int64(len(b))
	return b
}

func sourceWait(srcs []*timedSource) time.Duration {
	var w time.Duration
	for _, s := range srcs {
		w += s.wait
	}
	return w
}
