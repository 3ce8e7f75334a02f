package exp

import (
	"fmt"
	"strings"

	"droplet/internal/core"
	"droplet/internal/graph"
	"droplet/internal/names"
	"droplet/internal/prefetch"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// TableI formats the machine configuration in Table I's layout, both the
// paper-size baseline and the scaled experiment machine.
func TableI(sc workload.Scale) string {
	paper := sim.DefaultConfig()
	scaled := Machine(sc)
	var sb strings.Builder
	sb.WriteString("Table I: baseline architecture\n")
	row := func(name string, f func(sim.Config) string) {
		fmt.Fprintf(&sb, "  %-12s paper: %-38s experiment(%s): %s\n", name, f(paper), sc, f(scaled))
	}
	row("cores", func(c sim.Config) string {
		return fmt.Sprintf("%d cores, ROB=%d, LQ=%d, SQ=%d, width=%d",
			c.Cores, c.CPU.ROBSize, c.CPU.LoadQueue, c.CPU.StoreQueue, c.CPU.DispatchWidth)
	})
	row("L1D", func(c sim.Config) string {
		return fmt.Sprintf("%dKB %d-way, data %d / tag %d cyc",
			c.L1.SizeBytes>>10, c.L1.Assoc, c.L1.LatencyData, c.L1.LatencyTag)
	})
	row("L2", func(c sim.Config) string {
		return fmt.Sprintf("%dKB %d-way, data %d / tag %d cyc",
			c.L2.SizeBytes>>10, c.L2.Assoc, c.L2.LatencyData, c.L2.LatencyTag)
	})
	row("L3 (LLC)", func(c sim.Config) string {
		return fmt.Sprintf("%dKB %d-way, data %d / tag %d cyc",
			c.LLC.SizeBytes>>10, c.LLC.Assoc, c.LLC.LatencyData, c.LLC.LatencyTag)
	})
	row("DRAM", func(c sim.Config) string {
		return fmt.Sprintf("%d ch, row hit/miss %d/%d cyc, xfer %d cyc, MRB %d",
			c.DRAM.Channels, c.DRAM.RowHitCycles, c.DRAM.RowMissCycles, c.DRAM.TransferCycles, c.DRAM.MRBEntries)
	})
	return sb.String()
}

// TableII formats the algorithm registry.
func TableII() string {
	var sb strings.Builder
	sb.WriteString("Table II: algorithms\n")
	for _, a := range workload.AllAlgorithms {
		fmt.Fprintf(&sb, "  %-5s %s\n", a, a.Description())
	}
	return sb.String()
}

// TableIII formats the dataset registry with measured proxy statistics.
func TableIII(sc workload.Scale) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: datasets (synthetic proxies at %s scale)\n", sc)
	fmt.Fprintf(&sb, "  %-12s %-15s %10s %12s %8s %7s  %s\n",
		"dataset", "kind", "vertices", "edges", "deg", "gini", "paper original")
	for _, d := range workload.Datasets {
		g, err := workload.Graph(d.Name, sc, false)
		if err != nil {
			return "", err
		}
		st := graph.ComputeDegreeStats(g)
		fmt.Fprintf(&sb, "  %-12s %-15s %10d %12d %8.1f %7.3f  %s\n",
			d.Name, d.Kind, st.Vertices, st.Edges, st.Mean, st.Gini, d.Paper)
	}
	return sb.String(), nil
}

// TableIV restates the profiling-observation → design-decision mapping.
func TableIV() string {
	return `Table IV: prefetch decisions from profiling observations
  where to put prefetches?  the under-utilized private L2 (Observation #4)
  what to prefetch?         structure and property data; intermediate is
                            already on-chip (Observation #6)
  how to prefetch?          structure: stream from DRAM (large sequential
                            reuse distance); property: compute addresses
                            explicitly from prefetched structure lines and
                            decouple the prefetcher at the MC to break the
                            producer→consumer serialization (Observation #3)
  when to prefetch?         trigger property prefetches from structure
                            *prefetches*, not demands — chains are short so
                            demand-triggered property prefetches would be
                            late (Observation #2)
`
}

// TableV formats the evaluated prefetcher parameters.
func TableV() string {
	st := prefetch.DefaultStreamerConfig()
	gh := prefetch.DefaultGHBConfig()
	vl := prefetch.DefaultVLDPConfig()
	mp := prefetch.DefaultMPPConfig()
	pk := prefetch.DefaultPickleConfig()
	var sb strings.Builder
	sb.WriteString("Table V: prefetchers for evaluation\n")
	fmt.Fprintf(&sb, "  L2 GHB       index table = %d, buffer = %d, degree = %d\n", gh.IndexSize, gh.BufferSize, gh.Degree)
	fmt.Fprintf(&sb, "  L2 VLDP      %d-page DRB, %d-entry OPT, %d cascaded %d-entry DPTs\n", vl.DHBPages, vl.OPTSize, vl.NumDPTs, vl.DPTSize)
	fmt.Fprintf(&sb, "  L2 streamer  distance = %d, streams = %d, degree = %d, page-bounded\n", st.Distance, st.Streams, st.Degree)
	fmt.Fprintf(&sb, "  MPP          PAG latency = %d cyc, %d-entry VAB/PAB, %d-entry MTLB,\n", mp.PAGLatency, mp.VABEntries, mp.MTLBEntries)
	fmt.Fprintf(&sb, "               coherence check = %d cyc, page walk = %d cyc\n", mp.CoherenceCheckLatency, mp.PageWalkLatency)
	sb.WriteString("  MPP1         MPP + oracle identification of structure cachelines\n")
	fmt.Fprintf(&sb, "  LLC pickle   kernel latency = %d cyc, degree = %d, %d-line window\n", pk.KernelLatency, pk.MaxPerTrigger, pk.WindowLines)
	return sb.String()
}

// Experiment names one runnable experiment for the CLI and benches.
type Experiment struct {
	ID   string
	Desc string
	Run  func(s *Suite) (string, error)
}

// Experiments lists every reproducible table and figure.
var Experiments = []Experiment{
	{"table1", "baseline architecture", func(s *Suite) (string, error) { return TableI(s.Base.Scale), nil }},
	{"table2", "algorithms", func(s *Suite) (string, error) { return TableII(), nil }},
	{"table3", "datasets", func(s *Suite) (string, error) { return TableIII(s.Base.Scale) }},
	{"table4", "prefetch design decisions", func(s *Suite) (string, error) { return TableIV(), nil }},
	{"table5", "prefetcher parameters", func(s *Suite) (string, error) { return TableV(), nil }},
	{"fig1", "cycle stack of PR-orkut", wrap(RunFig1)},
	{"fig3", "4x instruction window sweep", wrap(RunFig3)},
	{"fig4a", "LLC capacity sweep", wrap(RunFig4a)},
	{"fig4b", "L2 configuration sweep", wrap(RunFig4b)},
	{"fig4c", "off-chip accesses by data type vs LLC", func(s *Suite) (string, error) {
		f, err := RunFig4a(s)
		if err != nil {
			return "", err
		}
		return f.FormatFig4c(), nil
	}},
	{"fig5", "load-load dependency chains", wrap(RunFig5)},
	{"fig6", "producer/consumer by data type", wrap(RunFig6)},
	{"fig7", "hierarchy usage by data type", wrap(RunFig7)},
	{"fig11", "prefetcher performance comparison", wrap(RunFig11)},
	{"fig12", "L2 hit rates under prefetching", wrap(RunFig12)},
	{"fig13", "off-chip demand MPKI by type", wrap(RunFig13)},
	{"fig14", "prefetch accuracy", wrap(RunFig14)},
	{"fig15", "bandwidth overhead (BPKI)", wrap(RunFig15)},
	{"repl", "LLC replacement-policy sweep (Jamet et al.)", wrap(RunReplacementSweep)},
	{"pfx", "prefetch-engine comparison incl. Pickle LLC engine", wrap(RunPrefetcherMatrix)},
	{"ablation", "Table IV design-decision ablation", wrap(RunAblation)},
	{"reusedist", "per-type reuse-distance profile (Observation #6)", wrap(RunReuseDist)},
	{"adaptive", "adaptive data-awareness extension (Section VII-B)", wrap(RunAdaptive)},
	{"multichannel", "multiple memory controllers (Section VI)", wrap(RunMultiChannel)},
	{"overhead", "hardware storage overhead (Section V-D)", func(s *Suite) (string, error) {
		o := core.ComputeOverhead(prefetch.DefaultMPPConfig(), Machine(s.Base.Scale).DRAM.MRBEntries, Machine(s.Base.Scale).Cores)
		return o.Format(), nil
	}},
}

// formatter is any experiment result that renders itself.
type formatter interface{ Format() string }

func wrap[T formatter](run func(*Suite) (T, error)) func(*Suite) (string, error) {
	return func(s *Suite) (string, error) {
		f, err := run(s)
		if err != nil {
			return "", err
		}
		return f.Format(), nil
	}
}

// ExperimentByID finds a registered experiment; the error for an unknown
// id lists every valid one.
func ExperimentByID(id string) (Experiment, error) {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	return Experiment{}, names.Unknown("exp", "experiment", id, ids)
}
