package exp

import (
	"fmt"
	"strings"

	"droplet/internal/core"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// MultiChannelRow compares DROPLET's benefit at one and two DRAM channels
// on one benchmark (the Section VI "Multiple MCs" discussion: property
// prefetch requests are routed to the MC owning the target address, so
// the design keeps working when data interleaves across channels).
type MultiChannelRow struct {
	Bench workload.Benchmark
	// Speedup of droplet over nopf at each channel count.
	OneChannel  float64
	TwoChannels float64
	// BaselineGain is nopf's own improvement from the second channel.
	BaselineGain float64
}

// MultiChannel holds the channel-scaling study.
type MultiChannel struct {
	Rows []MultiChannelRow
}

var multiChannelBenchmarks = []workload.Benchmark{
	{Algo: workload.PR, Dataset: "kron"},
	{Algo: workload.CC, Dataset: "orkut"},
}

var twoChannels = Variant{Name: "2ch", Mutate: func(c *sim.Config) { c.DRAM.Channels = 2 }}

// RunMultiChannel evaluates DROPLET with data interleaved across two DRAM
// channels.
func RunMultiChannel(s *Suite) (*MultiChannel, error) {
	benches := multiChannelBenchmarks
	if s.Benchmarks != nil {
		benches = s.Benchmarks
	}
	rs, err := grid[*sim.Result](s, benches, []Request{
		{Kind: core.NoPrefetch},
		{Kind: core.NoPrefetch, Variant: twoChannels},
		{Kind: core.DROPLET},
		{Kind: core.DROPLET, Variant: twoChannels},
	})
	if err != nil {
		return nil, err
	}
	f := &MultiChannel{}
	for i, b := range benches {
		base1, base2, drop1, drop2 := rs[i][0], rs[i][1], rs[i][2], rs[i][3]
		f.Rows = append(f.Rows, MultiChannelRow{
			Bench:        b,
			OneChannel:   drop1.Speedup(base1),
			TwoChannels:  drop2.Speedup(base2),
			BaselineGain: base2.Speedup(base1),
		})
	}
	return f, nil
}

// Format renders the study as text.
func (f *MultiChannel) Format() string {
	var sb strings.Builder
	sb.WriteString("Multiple MCs (Section VI): droplet speedup over nopf per channel count\n")
	fmt.Fprintf(&sb, "  %-12s %10s %12s %14s\n", "benchmark", "1 channel", "2 channels", "nopf 2ch gain")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "  %-12s %10.3f %12.3f %14.3f\n",
			r.Bench.String(), r.OneChannel, r.TwoChannels, r.BaselineGain)
	}
	sb.WriteString("  (droplet must keep its advantage when addresses interleave across MCs)\n")
	return sb.String()
}
