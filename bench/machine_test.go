package bench

import (
	"bytes"
	"context"
	"testing"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// TestTracedMachineMatchesSim runs tiny kernels through sim and through
// the traced machine, from a materialized trace and from a stream, and
// requires identical summaries.
func TestTracedMachineMatchesSim(t *testing.T) {
	kron, err := graph.Kron(8, 8, graph.GenOptions{Seed: 3, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(24, 24, graph.GenOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := trace.Options{Cores: 4, MaxEvents: 40_000, PRIters: 2}
	cases := []struct {
		name   string
		kind   core.PrefetcherKind
		trace  func() *trace.Trace
		stream func() *trace.Stream
	}{
		{"pr-kron", core.DROPLET,
			func() *trace.Trace { tr, _ := trace.PageRank(kron, kron.Transpose(), opt); return tr },
			func() *trace.Stream { return trace.StreamPageRank(kron, kron.Transpose(), opt, trace.StreamConfig{}) }},
		{"bfs-grid", core.NoPrefetch,
			func() *trace.Trace { tr, _ := trace.BFS(grid, 0, opt); return tr },
			func() *trace.Stream { return trace.StreamBFS(grid, 0, opt, trace.StreamConfig{}) }},
	}
	tc := calibrateTimer(1 << 10)
	for _, c := range cases {
		cfg := exp.Machine(workload.Quick)
		cfg.Prefetcher = c.kind
		tr := c.trace()
		want, err := sim.Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}

		m, err := newMachine(cfg, tr.Layout, tc, newWindow(accesses(want), 1000), nil,
			func(i int, port cpu.MemPort) *cpu.Core { return cpu.NewCore(i, cfg.CPU, port, tr.PerCore[i]) })
		if err != nil {
			t.Fatal(err)
		}
		m.drive()
		if got := summaryJSON(m.result()); !bytes.Equal(got, summaryJSON(want)) {
			t.Errorf("%s materialized: traced summary\n%s\nwant\n%s", c.name, got, summaryJSON(want))
		}
		checkSplit(t, c.name, m)

		st := c.stream()
		st.Start()
		srcs := make([]*timedSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = &timedSource{src: st.Source(i)}
		}
		m, err = newMachine(cfg, st.Layout(), tc, nil, srcs,
			func(i int, port cpu.MemPort) *cpu.Core { return cpu.NewStreamingCore(i, cfg.CPU, port, srcs[i], 0) })
		if err != nil {
			t.Fatal(err)
		}
		m.drive()
		st.Stop()
		if got := summaryJSON(m.result()); !bytes.Equal(got, summaryJSON(want)) {
			t.Errorf("%s streamed: traced summary\n%s\nwant\n%s", c.name, got, summaryJSON(want))
		}
		if m.traceEvent != tr.Events() {
			t.Errorf("%s streamed: sources delivered %d events, trace holds %d", c.name, m.traceEvent, tr.Events())
		}
		checkSplit(t, c.name, m)

		ref, err := sim.SimulateStream(context.Background(), c.stream(), cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(summaryJSON(ref), summaryJSON(want)) {
			t.Errorf("%s: sim's own stream and materialized runs differ", c.name)
		}
	}
}

// checkSplit requires every access counted, every election and barrier
// release seen by the drive-self timing, and the directly timed parts of
// the split positive.
func checkSplit(t *testing.T, name string, m *machine) {
	t.Helper()
	var calls int64
	for _, n := range m.port.calls {
		calls += n
	}
	if calls != m.steps {
		t.Errorf("%s: port counted %d accesses over %d steps", name, calls, m.steps)
	}
	if m.barriers == 0 || m.scans < m.barriers || m.scans > m.steps+m.barriers+1 {
		t.Errorf("%s: %d elections, %d barriers over %d steps", name, m.scans, m.barriers, m.steps)
	}
	s, err := m.split()
	if err != nil {
		t.Fatal(err)
	}
	if s.driveSelf <= 0 || s.access <= 0 {
		t.Errorf("%s: drive self %v, access %v; want both positive", name, s.driveSelf, s.access)
	}
}

func TestWindowBounds(t *testing.T) {
	cases := []struct {
		total, size, start, n int64
	}{
		{10, 4, 5, 4},
		{10, 100, 5, 5},
		{11, 100, 5, 6},
		{0, 4, 0, 0},
		{1, 4, 0, 1},
	}
	for _, c := range cases {
		w := newWindow(c.total, c.size)
		for i := range c.total {
			w.add(0, mem.Addr(i), mem.Property, false, i, memsys.LevelL1)
		}
		if int64(len(w.recs)) != c.n {
			t.Errorf("window(%d, %d) recorded %d accesses, want %d", c.total, c.size, len(w.recs), c.n)
			continue
		}
		for j, a := range w.recs {
			if a.now != c.start+int64(j) {
				t.Errorf("window(%d, %d) record %d is access %d, want %d", c.total, c.size, j, a.now, c.start+int64(j))
			}
		}
	}
}
