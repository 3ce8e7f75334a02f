package exp

import (
	"fmt"
	"strings"

	"droplet/internal/core"
	"droplet/internal/mem"
	"droplet/internal/sim"
)

// comparisonKinds is the engine set the "pfx" matrix sweeps: the suite's
// restriction when one was configured, otherwise the six fig11
// configurations plus the Pickle cross-core LLC engine.
func (s *Suite) comparisonKinds() []core.PrefetcherKind {
	if len(s.Prefetchers) > 0 {
		return s.Prefetchers
	}
	return append(append([]core.PrefetcherKind{}, fig11Kinds...), core.Pickle)
}

// EngineCounters aggregates one engine's issue/reject counters across
// cores (per-core engines fold into a single line; shared engines report
// their single instance).
type EngineCounters struct {
	Name     string
	Issued   uint64
	Rejected uint64
}

// PfxRow is one benchmark × configuration measurement.
type PfxRow struct {
	Kind    core.PrefetcherKind
	Speedup float64
	// AccStruct / AccProp are prefetch accuracies per data type; the Has
	// flags distinguish "no prefetches of this type issued" from 0.
	AccStruct float64
	HasStruct bool
	AccProp   float64
	HasProp   bool
	Engines   []EngineCounters
}

// PfxMatrix is the fig11-style engine comparison including the Pickle
// cross-core LLC engine, with per-engine telemetry counters.
type PfxMatrix struct {
	Kinds []core.PrefetcherKind
	// Rows maps benchmark → one row per Kinds entry, in Kinds order.
	Rows map[string][]PfxRow
}

// RunPrefetcherMatrix compares every configured engine against the
// no-prefetch baseline on the suite's benchmark matrix.
func RunPrefetcherMatrix(s *Suite) (*PfxMatrix, error) {
	kinds := s.comparisonKinds()
	benches := s.benchmarks()
	rs, err := grid[*sim.Result](s, benches, kindCols(append([]core.PrefetcherKind{core.NoPrefetch}, kinds...)...))
	if err != nil {
		return nil, err
	}
	f := &PfxMatrix{Kinds: kinds, Rows: make(map[string][]PfxRow)}
	for i, b := range benches {
		base := rs[i][0]
		rows := make([]PfxRow, 0, len(kinds))
		for j, k := range kinds {
			r := rs[i][j+1]
			row := PfxRow{Kind: k, Speedup: r.Speedup(base)}
			row.AccStruct, row.HasStruct = r.PrefetchAccuracy(mem.Structure)
			row.AccProp, row.HasProp = r.PrefetchAccuracy(mem.Property)
			row.Engines = engineCounters(r.Attachment)
			rows = append(rows, row)
		}
		f.Rows[b.String()] = rows
	}
	return f, nil
}

// engineCounters folds the attachment's per-core snapshots by engine
// name (first-seen order, which is the deterministic attach order) and
// appends the shared MPP's delivery counters.
func engineCounters(att *core.Attachment) []EngineCounters {
	if att == nil {
		return nil
	}
	var out []EngineCounters
	idx := make(map[string]int)
	for _, snap := range att.Engines(nil) {
		i, ok := idx[snap.Name]
		if !ok {
			i = len(out)
			idx[snap.Name] = i
			out = append(out, EngineCounters{Name: snap.Name})
		}
		out[i].Issued += snap.Issued
		out[i].Rejected += snap.Rejected
	}
	if m := att.MPP; m != nil {
		st := m.Stats()
		out = append(out, EngineCounters{
			Name:     "mpp",
			Issued:   st.CopiedFromLLC + st.IssuedToDRAM,
			Rejected: st.DroppedVABFull + st.DroppedFault,
		})
	}
	return out
}

// Format renders the matrix: per benchmark × configuration, speedup,
// per-type accuracy, and each engine's issued/rejected counters, with a
// per-configuration geomean footer.
func (f *PfxMatrix) Format() string {
	var sb strings.Builder
	sb.WriteString("Prefetcher comparison: speedup over no-prefetch baseline\n")
	fmt.Fprintf(&sb, "  %-14s %-14s %8s %8s %8s  %s\n",
		"benchmark", "config", "speedup", "accS", "accP", "engines (issued/rejected)")
	acc := func(a float64, ok bool) string {
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.3f", a)
	}
	for _, bench := range sortedKeys(f.Rows) {
		for _, row := range f.Rows[bench] {
			engines := "-"
			if len(row.Engines) > 0 {
				parts := make([]string, 0, len(row.Engines))
				for _, e := range row.Engines {
					parts = append(parts, fmt.Sprintf("%s:%d/%d", e.Name, e.Issued, e.Rejected))
				}
				engines = strings.Join(parts, " ")
			}
			fmt.Fprintf(&sb, "  %-14s %-14v %8.3f %8s %8s  %s\n",
				bench, row.Kind, row.Speedup,
				acc(row.AccStruct, row.HasStruct), acc(row.AccProp, row.HasProp), engines)
		}
	}
	sb.WriteString("  geomean speedup per config\n")
	benches := sortedKeys(f.Rows)
	for i, k := range f.Kinds {
		xs := make([]float64, 0, len(benches))
		for _, bench := range benches {
			xs = append(xs, f.Rows[bench][i].Speedup)
		}
		fmt.Fprintf(&sb, "    %-14v %8.3f\n", k, geomean(xs))
	}
	return sb.String()
}
