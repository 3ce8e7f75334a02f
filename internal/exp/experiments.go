package exp

import (
	"fmt"
	"sort"
	"strings"

	"droplet/internal/core"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// fig11Kinds are the six evaluated prefetcher configurations of Fig. 11.
var fig11Kinds = []core.PrefetcherKind{
	core.GHB, core.VLDP, core.Stream, core.StreamMPP1, core.DROPLET, core.MonoDROPLETL1,
}

// fig12Kinds are the configurations the zoom-in figures (12, 13, 15)
// compare; fig14Kinds drops nopf, which issues no prefetches to score.
var (
	fig12Kinds = []core.PrefetcherKind{core.NoPrefetch, core.Stream, core.StreamMPP1, core.DROPLET}
	fig14Kinds = fig12Kinds[1:]
)

// kindCols is one baseline-machine column per prefetcher kind.
func kindCols(kinds ...core.PrefetcherKind) []Request {
	cols := make([]Request, len(kinds))
	for i, k := range kinds {
		cols[i] = Request{Kind: k}
	}
	return cols
}

// meanByAlgo averages metric over each algorithm's benchmarks, per
// prefetcher kind: algorithm → kind → mean, with rs[i][j] the result of
// benches[i] under kinds[j]. A result whose metric reports false is left
// out of its mean, and a kind with nothing to average has no entry. It
// sums in benchmark order and then divides once, which fixes every bit
// of the tables built on it.
func meanByAlgo(benches []workload.Benchmark, kinds []core.PrefetcherKind, rs [][]*sim.Result, metric func(*sim.Result) (float64, bool)) map[string]map[string]float64 {
	sums := make(map[string]map[string]float64)
	counts := make(map[string]map[string]int)
	for i, b := range benches {
		algo := b.Algo.String()
		if sums[algo] == nil {
			sums[algo] = make(map[string]float64)
			counts[algo] = make(map[string]int)
		}
		for j, k := range kinds {
			if v, ok := metric(rs[i][j]); ok {
				sums[algo][k.String()] += v
				counts[algo][k.String()]++
			}
		}
	}
	for _, algo := range sortedKeys(sums) {
		for _, cfg := range sortedKeys(sums[algo]) {
			sums[algo][cfg] /= float64(counts[algo][cfg])
		}
	}
	return sums
}

// mergeByType stores each mean of one data type into slot i of dst's
// per-type arrays (Figs. 13 and 14).
func mergeByType[A ~[2]float64 | ~[mem.NumDataTypes]float64](dst map[string]map[string]A, mean map[string]map[string]float64, i int) {
	for _, algo := range sortedKeys(mean) {
		if dst[algo] == nil {
			dst[algo] = make(map[string]A)
		}
		for _, cfg := range sortedKeys(mean[algo]) {
			v := dst[algo][cfg]
			v[i] = mean[algo][cfg]
			dst[algo][cfg] = v
		}
	}
}

// ---------------------------------------------------------------- Fig. 1

// Fig1 is the cycle stack of PageRank on the orkut proxy.
type Fig1 struct {
	Bench   workload.Benchmark
	Base    float64
	ByLevel [memsys.NumLevels]float64
}

// RunFig1 reproduces Fig. 1 (paper: ~45% DRAM-bound stalls, ~15% base).
func RunFig1(s *Suite) (*Fig1, error) {
	b := workload.Benchmark{Algo: workload.PR, Dataset: "orkut"}
	r, err := s.Result(b, core.NoPrefetch, Variant{})
	if err != nil {
		return nil, err
	}
	f := &Fig1{Bench: b}
	f.Base, f.ByLevel = r.CycleStack()
	return f, nil
}

// Format renders the figure as text.
func (f *Fig1) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 1: cycle stack of %s\n", f.Bench)
	fmt.Fprintf(&sb, "  base  %5.1f%%\n", f.Base*100)
	for l := 0; l < memsys.NumLevels; l++ {
		fmt.Fprintf(&sb, "  %-5v %5.1f%%\n", memsys.Level(l), f.ByLevel[l]*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Row is one benchmark's 4×-ROB outcome.
type Fig3Row struct {
	Bench        workload.Benchmark
	BWUtilBase   float64
	BWUtilBigROB float64
	Speedup      float64
}

// Fig3 sweeps the instruction window (Observation #1).
type Fig3 struct {
	Rows []Fig3Row
	// MeanBWDelta and MeanSpeedup are the paper's headline averages
	// (+2.7% bandwidth, +1.44% speedup).
	MeanBWDelta float64
	MeanSpeedup float64
}

// rob4x is the 4× instruction window variant (window resources scale
// together, so the ROB is the only possible bottleneck left).
var rob4x = Variant{Name: "rob4x", Mutate: func(c *sim.Config) {
	c.CPU.ROBSize *= 4
	c.CPU.LoadQueue *= 4
	c.CPU.StoreQueue *= 4
}}

// RunFig3 reproduces Fig. 3 over all benchmarks.
func RunFig3(s *Suite) (*Fig3, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, []Request{{}, {Variant: rob4x}})
	if err != nil {
		return nil, err
	}
	f := &Fig3{}
	var bwSum, spSum float64
	for i, b := range benches {
		base, big := rs[i][0], rs[i][1]
		row := Fig3Row{
			Bench:        b,
			BWUtilBase:   base.BandwidthUtilization(),
			BWUtilBigROB: big.BandwidthUtilization(),
			Speedup:      big.Speedup(base),
		}
		f.Rows = append(f.Rows, row)
		bwSum += row.BWUtilBigROB - row.BWUtilBase
		spSum += row.Speedup
	}
	n := float64(len(f.Rows))
	f.MeanBWDelta = bwSum / n
	f.MeanSpeedup = spSum / n
	return f, nil
}

// Format renders the figure as text.
func (f *Fig3) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 3: 4x instruction window (ROB/LQ/SQ x4)\n")
	fmt.Fprintf(&sb, "  %-18s %10s %10s %9s\n", "benchmark", "BW(base)", "BW(4xROB)", "speedup")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-18s %9.2f%% %9.2f%% %9.3f\n",
			r.Bench.String(), r.BWUtilBase*100, r.BWUtilBigROB*100, r.Speedup)
	}
	fmt.Fprintf(&sb, "  mean bandwidth delta %+.2f%%, mean speedup %.3fx\n",
		f.MeanBWDelta*100, f.MeanSpeedup)
	return sb.String()
}

// ---------------------------------------------------------------- Fig. 4

// LLCMultipliers are the Fig. 4a capacity points (×1 = baseline ≙ 8MB in
// the paper).
var LLCMultipliers = []int{1, 2, 4, 8}

func llcVariant(mult int) Variant {
	if mult == 1 {
		return Variant{}
	}
	return Variant{
		Name: fmt.Sprintf("llc%dx", mult),
		Mutate: func(c *sim.Config) {
			c.LLC.SizeBytes *= mult
			// Larger arrays are slower (the paper extracts per-capacity
			// timings from CACTI; Fig. 4a's caption lists them): roughly
			// +6 data cycles and +2 tag cycles per doubling.
			for m := mult; m > 1; m /= 2 {
				c.LLC.LatencyData += 6
				c.LLC.LatencyTag += 2
			}
		},
	}
}

// Fig4aPoint is one LLC size's aggregate outcome.
type Fig4aPoint struct {
	Multiplier  int
	MeanMPKI    float64
	GeoSpeedup  float64 // vs the ×1 baseline
	MaxSpeedup  float64
	OffChipByTy [mem.NumDataTypes]float64 // mean DRAM-serviced fraction (Fig. 4c)
}

// Fig4a sweeps the shared LLC (Observations #4/#5; also provides Fig. 4c).
type Fig4a struct {
	Points []Fig4aPoint
}

// RunFig4a reproduces Fig. 4a/4c over all benchmarks.
func RunFig4a(s *Suite) (*Fig4a, error) {
	f := &Fig4a{}
	benches := s.benchmarks()
	cols := make([]Request, len(LLCMultipliers))
	for i, mult := range LLCMultipliers {
		cols[i] = Request{Variant: llcVariant(mult)}
	}
	rs, err := grid[*sim.Result](s, benches, cols)
	if err != nil {
		return nil, err
	}
	n := float64(len(benches))
	type acc struct {
		mpki     float64
		speedups []float64
		max      float64
		off      [mem.NumDataTypes]float64
	}
	accs := make([]acc, len(LLCMultipliers))
	for _, row := range rs {
		base := row[0] // the ×1 column is the baseline machine
		for i, r := range row {
			accs[i].mpki += r.LLCMPKI()
			sp := r.Speedup(base)
			accs[i].speedups = append(accs[i].speedups, sp)
			if sp > accs[i].max {
				accs[i].max = sp
			}
			o := r.OffChipFractionByType()
			for dt := range accs[i].off {
				accs[i].off[dt] += o[dt]
			}
		}
	}
	for i, mult := range LLCMultipliers {
		point := Fig4aPoint{
			Multiplier: mult,
			MeanMPKI:   accs[i].mpki / n,
			GeoSpeedup: geomean(accs[i].speedups),
			MaxSpeedup: accs[i].max,
		}
		for dt := range point.OffChipByTy {
			point.OffChipByTy[dt] = accs[i].off[dt] / n
		}
		f.Points = append(f.Points, point)
	}
	return f, nil
}

// Format renders Fig. 4a as text.
func (f *Fig4a) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 4a: shared LLC capacity sweep (no prefetch)\n")
	fmt.Fprintf(&sb, "  %-6s %10s %10s %10s\n", "LLC", "mean MPKI", "geo-spdup", "max spdup")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "  %5dx %10.2f %10.3f %10.3f\n", p.Multiplier, p.MeanMPKI, p.GeoSpeedup, p.MaxSpeedup)
	}
	return sb.String()
}

// FormatFig4c renders the Fig. 4c view of the same sweep.
func (f *Fig4a) FormatFig4c() string {
	var sb strings.Builder
	sb.WriteString("Fig 4c: off-chip (DRAM-serviced) fraction by data type vs LLC size\n")
	fmt.Fprintf(&sb, "  %-6s %14s %14s %14s\n", "LLC", "intermediate", "structure", "property")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "  %5dx %13.2f%% %13.2f%% %13.2f%%\n", p.Multiplier,
			p.OffChipByTy[mem.Intermediate]*100,
			p.OffChipByTy[mem.Structure]*100,
			p.OffChipByTy[mem.Property]*100)
	}
	return sb.String()
}

// Fig4bPoint is one private-L2 configuration's aggregate outcome.
type Fig4bPoint struct {
	Name       string
	MeanL2Hit  float64
	GeoSpeedup float64 // vs the baseline L2
}

// Fig4b sweeps the private L2 (Observation #4).
type Fig4b struct {
	Points []Fig4bPoint
}

// RunFig4b reproduces Fig. 4b over all benchmarks.
func RunFig4b(s *Suite) (*Fig4b, error) {
	variants := []Variant{
		{Name: "noL2", Mutate: func(c *sim.Config) { c.NoL2 = true }},
		{}, // baseline
		{Name: "l2x2", Mutate: func(c *sim.Config) { c.L2.SizeBytes *= 2 }},
		{Name: "l2assoc4x", Mutate: func(c *sim.Config) { c.L2.Assoc *= 4 }},
	}
	names := []string{"no L2", "baseline", "2x capacity", "4x assoc"}

	f := &Fig4b{}
	benches := s.benchmarks()
	cols := make([]Request, len(variants))
	for i, v := range variants {
		cols[i] = Request{Variant: v}
	}
	rs, err := grid[*sim.Result](s, benches, cols)
	if err != nil {
		return nil, err
	}
	hitSums := make([]float64, len(variants))
	speedups := make([][]float64, len(variants))
	for _, row := range rs {
		base := row[1] // the baseline column
		for i, r := range row {
			hitSums[i] += r.L2HitRate()
			speedups[i] = append(speedups[i], r.Speedup(base))
		}
	}
	for i := range variants {
		f.Points = append(f.Points, Fig4bPoint{
			Name:       names[i],
			MeanL2Hit:  hitSums[i] / float64(len(benches)),
			GeoSpeedup: geomean(speedups[i]),
		})
	}
	return f, nil
}

// Format renders Fig. 4b as text.
func (f *Fig4b) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 4b: private L2 configuration sweep (no prefetch)\n")
	fmt.Fprintf(&sb, "  %-12s %12s %12s\n", "config", "mean L2 hit", "geo-speedup")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "  %-12s %11.1f%% %12.3f\n", p.Name, p.MeanL2Hit*100, p.GeoSpeedup)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Fig. 5/6

// Fig5Row is one benchmark's dependency-chain profile.
type Fig5Row struct {
	Bench       workload.Benchmark
	InChainFrac float64
	AvgChainLen float64
}

// Fig5 is the load-load dependency analysis (Observation #2).
type Fig5 struct {
	Rows            []Fig5Row
	MeanInChainFrac float64
	MeanChainLen    float64
}

// RunFig5 reproduces Fig. 5 (paper: 43.2% of loads in chains, mean
// length 2.5) with the baseline 128-entry ROB window.
func RunFig5(s *Suite) (*Fig5, error) {
	f := &Fig5{}
	benches := s.benchmarks()
	rob := Machine(s.Base.Scale).CPU.ROBSize
	sts, err := grid[trace.DepStats](s, benches, []Request{{Analyze: true, ROBSize: rob}})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		st := sts[i][0]
		row := Fig5Row{Bench: b, InChainFrac: st.InChainFraction(), AvgChainLen: st.AvgChainLen}
		f.Rows = append(f.Rows, row)
		f.MeanInChainFrac += row.InChainFrac
		f.MeanChainLen += row.AvgChainLen
	}
	n := float64(len(f.Rows))
	f.MeanInChainFrac /= n
	f.MeanChainLen /= n
	return f, nil
}

// Format renders Fig. 5 as text.
func (f *Fig5) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 5: load-load dependency chains in the ROB\n")
	fmt.Fprintf(&sb, "  %-18s %10s %10s\n", "benchmark", "in-chain", "chain-len")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-18s %9.1f%% %10.2f\n", r.Bench.String(), r.InChainFrac*100, r.AvgChainLen)
	}
	fmt.Fprintf(&sb, "  mean: %.1f%% of loads in chains, avg length %.2f\n",
		f.MeanInChainFrac*100, f.MeanChainLen)
	return sb.String()
}

// Fig6 is the producer/consumer breakdown by data type (Observation #3).
type Fig6 struct {
	// ProducerFrac / ConsumerFrac index by data type: the mean fraction
	// of that type's loads acting in each role.
	ProducerFrac [mem.NumDataTypes]float64
	ConsumerFrac [mem.NumDataTypes]float64
}

// RunFig6 reproduces Fig. 6 (paper: property 53.6% consumer / 5.9%
// producer; structure 41.4% producer / 6% consumer).
func RunFig6(s *Suite) (*Fig6, error) {
	f := &Fig6{}
	benches := s.benchmarks()
	rob := Machine(s.Base.Scale).CPU.ROBSize
	sts, err := grid[trace.DepStats](s, benches, []Request{{Analyze: true, ROBSize: rob}})
	if err != nil {
		return nil, err
	}
	for _, row := range sts {
		st := row[0]
		for dt := 0; dt < mem.NumDataTypes; dt++ {
			f.ProducerFrac[dt] += st.ProducerFraction(mem.DataType(dt))
			f.ConsumerFrac[dt] += st.ConsumerFraction(mem.DataType(dt))
		}
	}
	n := float64(len(benches))
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		f.ProducerFrac[dt] /= n
		f.ConsumerFrac[dt] /= n
	}
	return f, nil
}

// Format renders Fig. 6 as text.
func (f *Fig6) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 6: producer/consumer loads by data type (mean)\n")
	fmt.Fprintf(&sb, "  %-14s %10s %10s\n", "type", "producer", "consumer")
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		fmt.Fprintf(&sb, "  %-14v %9.1f%% %9.1f%%\n", mem.DataType(dt),
			f.ProducerFrac[dt]*100, f.ConsumerFrac[dt]*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Row is one benchmark's per-type hierarchy usage.
type Fig7Row struct {
	Bench    workload.Benchmark
	Serviced [mem.NumDataTypes][memsys.NumLevels]float64
}

// Fig7 is the memory-hierarchy usage breakdown by data type.
type Fig7 struct {
	Rows []Fig7Row
	Mean [mem.NumDataTypes][memsys.NumLevels]float64
}

// RunFig7 reproduces Fig. 7 (Observation #6: structure is serviced by L1
// and DRAM; property by L1, LLC and DRAM; intermediate stays on-chip).
func RunFig7(s *Suite) (*Fig7, error) {
	f := &Fig7{}
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(core.NoPrefetch))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := Fig7Row{Bench: b, Serviced: rs[i][0].ServicedFractions()}
		f.Rows = append(f.Rows, row)
		for dt := 0; dt < mem.NumDataTypes; dt++ {
			for l := 0; l < memsys.NumLevels; l++ {
				f.Mean[dt][l] += row.Serviced[dt][l]
			}
		}
	}
	n := float64(len(benches))
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		for l := 0; l < memsys.NumLevels; l++ {
			f.Mean[dt][l] /= n
		}
	}
	return f, nil
}

// Format renders Fig. 7 as text (mean across benchmarks).
func (f *Fig7) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 7: memory hierarchy usage by data type (mean service fractions)\n")
	fmt.Fprintf(&sb, "  %-14s %8s %8s %8s %8s\n", "type", "L1", "L2", "L3", "DRAM")
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		fmt.Fprintf(&sb, "  %-14v", mem.DataType(dt))
		for l := 0; l < memsys.NumLevels; l++ {
			fmt.Fprintf(&sb, " %7.1f%%", f.Mean[dt][l]*100)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --------------------------------------------------------------- Fig. 11

// Fig11Row is one benchmark's speedups, keyed by configuration name.
type Fig11Row struct {
	Bench   workload.Benchmark
	Speedup map[string]float64
}

// Fig11 is the headline performance comparison.
type Fig11 struct {
	Rows []Fig11Row
	// Geomean maps algorithm → configuration → geomean speedup across
	// the five datasets (Fig. 11b).
	Geomean map[string]map[string]float64
}

// RunFig11 reproduces Fig. 11a/11b.
func RunFig11(s *Suite) (*Fig11, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(append([]core.PrefetcherKind{core.NoPrefetch}, fig11Kinds...)...))
	if err != nil {
		return nil, err
	}
	f := &Fig11{Geomean: make(map[string]map[string]float64)}
	perAlgo := make(map[string]map[string][]float64)
	for i, b := range benches {
		base := rs[i][0]
		row := Fig11Row{Bench: b, Speedup: make(map[string]float64)}
		for j, k := range fig11Kinds {
			sp := rs[i][j+1].Speedup(base)
			row.Speedup[k.String()] = sp
			algo := b.Algo.String()
			if perAlgo[algo] == nil {
				perAlgo[algo] = make(map[string][]float64)
			}
			perAlgo[algo][k.String()] = append(perAlgo[algo][k.String()], sp)
		}
		f.Rows = append(f.Rows, row)
	}
	for _, algo := range sortedKeys(perAlgo) {
		m := perAlgo[algo]
		f.Geomean[algo] = make(map[string]float64)
		for _, cfg := range sortedKeys(m) {
			f.Geomean[algo][cfg] = geomean(m[cfg])
		}
	}
	return f, nil
}

// Format renders Fig. 11a and 11b as text.
func (f *Fig11) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 11a: speedup over no-prefetch baseline\n")
	fmt.Fprintf(&sb, "  %-18s", "benchmark")
	for _, k := range fig11Kinds {
		fmt.Fprintf(&sb, " %13s", k)
	}
	sb.WriteByte('\n')
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-18s", r.Bench.String())
		for _, k := range fig11Kinds {
			fmt.Fprintf(&sb, " %13.3f", r.Speedup[k.String()])
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("Fig 11b: geomean speedup per algorithm\n")
	fmt.Fprintf(&sb, "  %-6s", "algo")
	for _, k := range fig11Kinds {
		fmt.Fprintf(&sb, " %13s", k)
	}
	sb.WriteByte('\n')
	for _, a := range workload.AllAlgorithms {
		fmt.Fprintf(&sb, "  %-6s", a)
		for _, k := range fig11Kinds {
			fmt.Fprintf(&sb, " %13.3f", f.Geomean[a.String()][k.String()])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --------------------------------------------------------------- Fig. 12

// Fig12 compares L2 hit rates across prefetch configurations.
type Fig12 struct {
	// HitRate maps algorithm → configuration → mean L2 hit rate across
	// datasets.
	HitRate map[string]map[string]float64
}

// RunFig12 reproduces Fig. 12 (DROPLET turns the under-utilized L2 into a
// high-hit-rate staging buffer).
func RunFig12(s *Suite) (*Fig12, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(fig12Kinds...))
	if err != nil {
		return nil, err
	}
	return &Fig12{HitRate: meanByAlgo(benches, fig12Kinds, rs, func(r *sim.Result) (float64, bool) {
		return r.L2HitRate(), true
	})}, nil
}

// Format renders Fig. 12 as text.
func (f *Fig12) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 12: mean private-L2 hit rate per algorithm\n")
	fmt.Fprintf(&sb, "  %-6s", "algo")
	for _, k := range fig12Kinds {
		fmt.Fprintf(&sb, " %13s", k)
	}
	sb.WriteByte('\n')
	for _, a := range workload.AllAlgorithms {
		fmt.Fprintf(&sb, "  %-6s", a)
		for _, k := range fig12Kinds {
			fmt.Fprintf(&sb, " %12.1f%%", f.HitRate[a.String()][k.String()]*100)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --------------------------------------------------------------- Fig. 13

// Fig13 breaks down off-chip demand MPKI by data type per configuration.
type Fig13 struct {
	// MPKI maps algorithm → configuration → per-type demand MPKI (mean
	// across datasets).
	MPKI map[string]map[string][mem.NumDataTypes]float64
}

// RunFig13 reproduces Fig. 13.
func RunFig13(s *Suite) (*Fig13, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(fig12Kinds...))
	if err != nil {
		return nil, err
	}
	f := &Fig13{MPKI: make(map[string]map[string][mem.NumDataTypes]float64)}
	for dt := range mem.NumDataTypes {
		mean := meanByAlgo(benches, fig12Kinds, rs, func(r *sim.Result) (float64, bool) {
			return r.DemandMPKIByType()[dt], true
		})
		mergeByType(f.MPKI, mean, dt)
	}
	return f, nil
}

// Format renders Fig. 13 as text.
func (f *Fig13) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 13: off-chip demand MPKI by data type (mean per algorithm)\n")
	fmt.Fprintf(&sb, "  %-6s %-13s %12s %12s %12s\n", "algo", "config", "structure", "property", "intermediate")
	for _, a := range workload.AllAlgorithms {
		for _, k := range fig12Kinds {
			m := f.MPKI[a.String()][k.String()]
			fmt.Fprintf(&sb, "  %-6s %-13s %12.2f %12.2f %12.2f\n", a, k,
				m[mem.Structure], m[mem.Property], m[mem.Intermediate])
		}
	}
	return sb.String()
}

// --------------------------------------------------------------- Fig. 14

// Fig14 reports prefetch accuracy per configuration and data type.
type Fig14 struct {
	// Accuracy maps algorithm → configuration → [structure, property]
	// accuracy (mean across datasets with issued prefetches).
	Accuracy map[string]map[string][2]float64
}

// RunFig14 reproduces Fig. 14.
func RunFig14(s *Suite) (*Fig14, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(fig14Kinds...))
	if err != nil {
		return nil, err
	}
	f := &Fig14{Accuracy: make(map[string]map[string][2]float64)}
	for i, dt := range []mem.DataType{mem.Structure, mem.Property} {
		mean := meanByAlgo(benches, fig14Kinds, rs, func(r *sim.Result) (float64, bool) {
			return r.PrefetchAccuracy(dt)
		})
		mergeByType(f.Accuracy, mean, i)
	}
	return f, nil
}

// Format renders Fig. 14 as text.
func (f *Fig14) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 14: prefetch accuracy (mean per algorithm)\n")
	fmt.Fprintf(&sb, "  %-6s %-13s %12s %12s\n", "algo", "config", "structure", "property")
	for _, a := range workload.AllAlgorithms {
		for _, k := range fig14Kinds {
			acc := f.Accuracy[a.String()][k.String()]
			fmt.Fprintf(&sb, "  %-6s %-13s %11.1f%% %11.1f%%\n", a, k, acc[0]*100, acc[1]*100)
		}
	}
	return sb.String()
}

// --------------------------------------------------------------- Fig. 15

// Fig15 reports bandwidth overhead (BPKI) per configuration.
type Fig15 struct {
	// BPKI maps algorithm → configuration → mean BPKI; Extra is the
	// percentage increase of droplet over nopf per algorithm.
	BPKI  map[string]map[string]float64
	Extra map[string]float64
}

// RunFig15 reproduces Fig. 15 (paper: DROPLET adds 6.5%-19.9% bandwidth).
func RunFig15(s *Suite) (*Fig15, error) {
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(fig12Kinds...))
	if err != nil {
		return nil, err
	}
	f := &Fig15{Extra: make(map[string]float64)}
	f.BPKI = meanByAlgo(benches, fig12Kinds, rs, func(r *sim.Result) (float64, bool) {
		return r.BPKI(), true
	})
	for _, algo := range sortedKeys(f.BPKI) {
		m := f.BPKI[algo]
		if base := m[core.NoPrefetch.String()]; base > 0 {
			f.Extra[algo] = (m[core.DROPLET.String()] - base) / base
		}
	}
	return f, nil
}

// Format renders Fig. 15 as text.
func (f *Fig15) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 15: DRAM bus accesses per kilo-instruction (mean per algorithm)\n")
	fmt.Fprintf(&sb, "  %-6s", "algo")
	for _, k := range fig12Kinds {
		fmt.Fprintf(&sb, " %13s", k)
	}
	fmt.Fprintf(&sb, " %13s\n", "droplet-extra")
	for _, a := range workload.AllAlgorithms {
		fmt.Fprintf(&sb, "  %-6s", a)
		for _, k := range fig12Kinds {
			fmt.Fprintf(&sb, " %13.2f", f.BPKI[a.String()][k.String()])
		}
		fmt.Fprintf(&sb, " %12.1f%%\n", f.Extra[a.String()]*100)
	}
	return sb.String()
}

// sortedKeys returns m's keys in ascending order. Figure tables are
// rebuilt from maps keyed by algorithm and configuration name; iterating
// those maps in sorted order is what keeps the emitted bytes identical
// across runs (and is the canonical shape the detmap analyzer accepts).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
