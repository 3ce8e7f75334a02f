// Package core implements the paper's contribution: DROPLET, the
// data-aware decoupled prefetcher for graph workloads, together with the
// five comparator configurations of Section VII-A. Each configuration is
// expressed as a set of prefetch-engine attachments onto a
// memsys.Hierarchy:
//
//	nopf           no prefetching
//	ghb            per-core G/DC global history buffer at the L2
//	vldp           per-core Variable Length Delta Prefetcher at the L2
//	stream         per-core conventional FDP-style L2 streamer
//	streamMPP1     conventional streamer + MC-side MPP1 (structure oracle)
//	droplet        data-aware structure-only streamer + MC-side MPP
//	               triggered by the MRB C-bit (the paper's design)
//	monoDROPLETL1  data-aware streamer + MPP1 implemented monolithically
//	               at the L1 (the Ainsworth-&-Jones-like arrangement)
//	pickle         Pickle-style cross-core LLC engine: structure demand
//	               misses from any core trigger precise LLC-only property
//	               prefetches
//
// The design decisions encoded here map one-to-one onto Table IV:
// prefetches land in the under-utilized L2, structure data streams with
// the C-bit set, property addresses are computed from prefetched (not
// demand) structure lines, and the MPP sits at the MC to break the
// producer→consumer serialization.
package core

import (
	"fmt"

	"droplet/internal/memsys"
	"droplet/internal/names"
	"droplet/internal/prefetch"
	"droplet/internal/trace"
)

// PrefetcherKind selects one of the six evaluated configurations.
type PrefetcherKind int

// The evaluation configurations of Section VII-A, in Fig. 11 order.
const (
	NoPrefetch PrefetcherKind = iota
	GHB
	VLDP
	Stream
	StreamMPP1
	DROPLET
	MonoDROPLETL1
	// DROPLETDemandTriggered is an ablation (not one of the paper's six
	// configurations): DROPLET with the MPP triggered by structure
	// *demand* refills instead of structure prefetch refills, quantifying
	// Table IV's "when to prefetch" decision.
	DROPLETDemandTriggered
	// DROPLETAdaptive implements the extension Section VII-B suggests:
	// the streamer toggles its data-awareness based on measured L2 hit
	// rate, converting itself into the streamMPP1 arrangement on
	// workloads (BFS, road meshes) where that wins.
	DROPLETAdaptive
	// Pickle is the Pickle-style cross-core LLC engine (PAPERS.md): LLC
	// demand misses on structure lines from any core trigger precise
	// property prefetches that fill only the shared LLC.
	Pickle
)

// AllKinds lists every configuration in presentation order (the paper's
// six plus the demand-trigger ablation and the cross-core LLC engine).
var AllKinds = []PrefetcherKind{NoPrefetch, GHB, VLDP, Stream, StreamMPP1, DROPLET, MonoDROPLETL1, DROPLETDemandTriggered, DROPLETAdaptive, Pickle}

// KindNames lists every configuration name, for flag help text and
// parse-error messages.
func KindNames() []string {
	names := make([]string, len(AllKinds))
	for i, k := range AllKinds {
		names[i] = k.String()
	}
	return names
}

// String implements fmt.Stringer with the paper's configuration names.
func (k PrefetcherKind) String() string {
	switch k {
	case NoPrefetch:
		return "nopf"
	case GHB:
		return "ghb"
	case VLDP:
		return "vldp"
	case Stream:
		return "stream"
	case StreamMPP1:
		return "streamMPP1"
	case DROPLET:
		return "droplet"
	case MonoDROPLETL1:
		return "monoDROPLETL1"
	case DROPLETDemandTriggered:
		return "dropletDT"
	case DROPLETAdaptive:
		return "dropletA"
	case Pickle:
		return "pickle"
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(k))
	}
}

// ParseKind resolves a configuration name.
func ParseKind(s string) (PrefetcherKind, error) {
	for _, k := range AllKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, names.Unknown("core", "prefetcher", s, KindNames())
}

// Options tunes an attachment.
type Options struct {
	Streamer prefetch.StreamerConfig
	Adaptive prefetch.AdaptiveConfig
	GHB      prefetch.GHBConfig
	VLDP     prefetch.VLDPConfig
	MPP      prefetch.MPPConfig
	Pickle   prefetch.PickleConfig
}

// DefaultOptions returns the Table V parameters.
func DefaultOptions() Options {
	return Options{
		Streamer: prefetch.DefaultStreamerConfig(),
		Adaptive: prefetch.DefaultAdaptiveConfig(),
		GHB:      prefetch.DefaultGHBConfig(),
		VLDP:     prefetch.DefaultVLDPConfig(),
		MPP:      prefetch.DefaultMPPConfig(),
		Pickle:   prefetch.DefaultPickleConfig(),
	}
}

// Attachment holds the live prefetch engines wired to a hierarchy, for
// statistics inspection after a run.
type Attachment struct {
	Kind      PrefetcherKind
	Streamers []*prefetch.Streamer
	Adaptives []*prefetch.AdaptiveStreamer
	GHBs      []*prefetch.GHB
	VLDPs     []*prefetch.VLDP
	MPP       *prefetch.MPP
	Pickle    *prefetch.Pickle
}

// SharedEngineCore is the Core value EngineSnapshot uses for engines
// observing the merged cross-core stream (the LLC and MC levels).
const SharedEngineCore = -1

// EngineSnapshot is a point-in-time view of one prefetch engine's
// cumulative counters, used by the telemetry subsystem to derive per-epoch
// deltas. Core is the owning core index, or SharedEngineCore for engines
// observing the merged cross-core stream (the shared MPP is reported
// separately via MPPStats).
type EngineSnapshot struct {
	Core     int
	Name     string
	Issued   uint64
	Rejected uint64
}

// Engines appends a snapshot of every attached engine to buf in
// deterministic order (per-core engines in core order, then shared ones)
// and returns the extended slice. Callers reuse buf across epochs to keep
// the observer path allocation-free after the first call.
func (a *Attachment) Engines(buf []EngineSnapshot) []EngineSnapshot {
	for c, s := range a.Streamers {
		buf = append(buf, EngineSnapshot{Core: c, Name: "stream", Issued: s.Issued, Rejected: s.RejectedNonStructure})
	}
	for c, ad := range a.Adaptives {
		buf = append(buf, EngineSnapshot{Core: c, Name: "adaptive", Issued: ad.Issued(), Rejected: ad.RejectedNonStructure()})
	}
	for c, g := range a.GHBs {
		buf = append(buf, EngineSnapshot{Core: c, Name: "ghb", Issued: g.Issued})
	}
	for c, v := range a.VLDPs {
		buf = append(buf, EngineSnapshot{Core: c, Name: "vldp", Issued: v.Issued})
	}
	if p := a.Pickle; p != nil {
		st := p.Stats()
		buf = append(buf, EngineSnapshot{Core: SharedEngineCore, Name: "pickle", Issued: st.Issued, Rejected: st.RejectedNonTrigger})
	}
	return buf
}

// Attach wires the prefetch engines of kind k onto h for the workload
// described by layout. It must be called before the simulation starts.
// An MPP config that NewMPP would panic on is an error here.
func Attach(k PrefetcherKind, h *memsys.Hierarchy, layout *trace.Layout, opt Options) (*Attachment, error) {
	a := &Attachment{Kind: k}
	n := h.NumCores()

	props := make([]prefetch.PropArray, 0, len(layout.Properties))
	for _, p := range layout.Properties {
		props = append(props, prefetch.PropArray{
			Base:  p.Base,
			Elem:  layout.PropElem,
			Count: p.Size / layout.PropElem,
		})
	}
	scan := prefetch.LineScanner(layout.ScanStructureLine)

	// wire attaches one engine through the hierarchy's level-agnostic
	// seam, keeping the first error (attachMPP's too).
	var wireErr error
	wire := func(c int, e prefetch.Engine) {
		if err := h.AttachEngine(c, e); err != nil && wireErr == nil {
			wireErr = err
		}
	}

	// streamers attaches one L2 streamer per core: data-aware (DROPLET's
	// structure-only C-bit streamer, Fig. 9(b)) or conventional.
	streamers := func(dataAware, fillL1 bool) {
		cfg := opt.Streamer
		cfg.DataAware, cfg.FillL1 = dataAware, fillL1
		for c := 0; c < n; c++ {
			s := prefetch.NewStreamer(cfg)
			a.Streamers = append(a.Streamers, s)
			wire(c, s)
		}
	}

	attachMPP := func(trigger prefetch.TriggerMode) {
		cfg := opt.MPP
		if err := cfg.Validate(); err != nil {
			if wireErr == nil {
				wireErr = err
			}
			return
		}
		cfg.Trigger = trigger
		if k == MonoDROPLETL1 {
			// The monolithic arrangement fills the L1, and its property
			// scan waits for the refill to climb LLC→L2→L1.
			cfg.FillL1 = true
			cfg.ExtraTriggerDelay = h.RefillClimbLatency()
		}
		// The MPP declares AttachMC: the seam subscribes it to refill
		// completions (delivery deferred to when the refill completes, not
		// when the read is scheduled) and binds the chip interface.
		a.MPP = prefetch.NewMPP(cfg, layout.AS, scan, props)
		wire(SharedEngineCore, a.MPP)
	}

	switch k {
	case NoPrefetch:
		// Nothing to attach.

	case GHB:
		for c := 0; c < n; c++ {
			g := prefetch.NewGHB(opt.GHB)
			a.GHBs = append(a.GHBs, g)
			wire(c, g)
		}

	case VLDP:
		for c := 0; c < n; c++ {
			v := prefetch.NewVLDP(opt.VLDP)
			a.VLDPs = append(a.VLDPs, v)
			wire(c, v)
		}

	case Stream:
		streamers(false, false)

	case StreamMPP1:
		streamers(false, opt.Streamer.FillL1)
		attachMPP(prefetch.TriggerStructureOracle)

	case DROPLET:
		streamers(true, opt.Streamer.FillL1)
		attachMPP(prefetch.TriggerCBit)

	case DROPLETDemandTriggered:
		streamers(true, opt.Streamer.FillL1)
		attachMPP(prefetch.TriggerStructureDemand)

	case MonoDROPLETL1:
		streamers(true, true)
		attachMPP(prefetch.TriggerStructureOracle)

	case DROPLETAdaptive:
		acfg := opt.Adaptive
		acfg.Base = opt.Streamer
		for c := 0; c < n; c++ {
			ad := prefetch.NewAdaptiveStreamer(acfg)
			a.Adaptives = append(a.Adaptives, ad)
			wire(c, ad)
		}
		// The streamer's mode varies, so the C-bit cannot be relied on:
		// pair with the structure-oracle MPP (the streamMPP1 trigger).
		attachMPP(prefetch.TriggerStructureOracle)

	case Pickle:
		a.Pickle = prefetch.NewPickle(opt.Pickle, scan, props)
		wire(SharedEngineCore, a.Pickle)

	default:
		return nil, fmt.Errorf("core: unknown prefetcher kind %d", k)
	}
	if wireErr != nil {
		return nil, wireErr
	}
	return a, nil
}
