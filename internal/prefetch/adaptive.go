package prefetch

// The paper notes (Section VII-B) that DROPLET "could easily be extended
// to adaptively turn off the streamer's data-awareness to convert it into
// the streamMPP1 design", making it no worse than streamMPP1 on BFS and
// road-network workloads. AdaptiveStreamer implements that extension: an
// epoch-based controller that measures the L2 hit rate delivered under
// each mode (data-aware vs conventional) and greedily keeps the better
// one, re-probing periodically in case the workload's phase changes.

// AdaptiveConfig parameterizes the adaptive streamer.
type AdaptiveConfig struct {
	Base StreamerConfig
	// EpochAccesses is the measurement window length.
	EpochAccesses int
	// ReprobeEvery forces a probe of the non-preferred mode after this
	// many settled epochs.
	ReprobeEvery int
}

// DefaultAdaptiveConfig returns a sensible controller configuration.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Base:          DefaultStreamerConfig(),
		EpochAccesses: 2048,
		ReprobeEvery:  16,
	}
}

// AdaptiveStreamer wraps a Streamer, toggling its data-awareness based on
// the measured L2 hit rate. When conventional mode is active the emitted
// requests carry no C-bit, so an MPP paired with it must use the
// structure-oracle trigger (exactly the streamMPP1 arrangement).
type AdaptiveStreamer struct {
	L2Local
	cfg AdaptiveConfig
	s   *Streamer

	count, hits int
	// rate / measured index by mode: 0 = conventional, 1 = data-aware.
	rate     [2]float64
	measured [2]bool
	settled  int // epochs since last probe

	// Switches counts mode changes (stats/tests).
	Switches int
}

// NewAdaptiveStreamer builds an adaptive streamer starting in data-aware
// mode (DROPLET's default).
func NewAdaptiveStreamer(cfg AdaptiveConfig) *AdaptiveStreamer {
	if cfg.EpochAccesses < 64 || cfg.ReprobeEvery < 1 {
		panic("prefetch: bad adaptive config")
	}
	base := cfg.Base
	base.DataAware = true
	return &AdaptiveStreamer{cfg: cfg, s: NewStreamer(base)}
}

// Name implements Engine.
func (a *AdaptiveStreamer) Name() string { return "adaptive" }

// DataAware reports the current mode.
func (a *AdaptiveStreamer) DataAware() bool { return a.s.cfg.DataAware }

// Issued reports the wrapped streamer's issued-prefetch count.
func (a *AdaptiveStreamer) Issued() uint64 { return a.s.Issued }

// RejectedNonStructure reports the wrapped streamer's count of training
// accesses rejected for not targeting structure data (only meaningful
// while data-aware mode is active).
func (a *AdaptiveStreamer) RejectedNonStructure() uint64 { return a.s.RejectedNonStructure }

// Observe implements Engine.
//
//droplet:hotpath
func (a *AdaptiveStreamer) Observe(ev AccessInfo, reqs []Req) []Req {
	a.count++
	if ev.L2Hit {
		a.hits++
	}
	if a.count >= a.cfg.EpochAccesses {
		a.endEpoch()
	}
	return a.s.Observe(ev, reqs)
}

func (a *AdaptiveStreamer) endEpoch() {
	mode := a.modeIndex()
	a.rate[mode] = float64(a.hits) / float64(a.count)
	a.measured[mode] = true
	a.count, a.hits = 0, 0

	other := 1 - mode
	switch {
	case !a.measured[other]:
		// Probe the unmeasured mode.
		a.setMode(other == 1)
	case a.settled >= a.cfg.ReprobeEvery:
		a.settled = 0
		a.setMode(other == 1)
	default:
		// Keep the better mode.
		best := a.rate[1] >= a.rate[0]
		a.setMode(best)
		a.settled++
	}
}

func (a *AdaptiveStreamer) modeIndex() int {
	if a.s.cfg.DataAware {
		return 1
	}
	return 0
}

func (a *AdaptiveStreamer) setMode(dataAware bool) {
	if a.s.cfg.DataAware == dataAware {
		return
	}
	a.s.cfg.DataAware = dataAware
	a.Switches++
}
