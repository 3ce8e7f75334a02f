package trace_test

import (
	"testing"

	"droplet/internal/graph"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// bruteSpan is the oracle for Trace.DepSpan: the longest i - Dep over
// every dependent event of every core's stream.
func bruteSpan(tr *trace.Trace) int {
	span := 0
	for _, stream := range tr.PerCore {
		for i, ev := range stream {
			if ev.Dep >= 0 {
				span = max(span, i-int(ev.Dep))
			}
		}
	}
	return span
}

// checkSpan requires the trace's recorded span to equal the oracle and
// the kernel's stream bound (streamSpan < 0: materialized only) to cover
// it.
func checkSpan(t *testing.T, tr *trace.Trace, streamSpan int) {
	t.Helper()
	want := bruteSpan(tr)
	t.Logf("span %d, stream bound %d", want, streamSpan)
	if tr.DepSpan != want {
		t.Errorf("Trace.DepSpan = %d, brute-force maximum %d", tr.DepSpan, want)
	}
	if streamSpan >= 0 && streamSpan < want {
		t.Errorf("Stream.DepSpan() = %d below the trace's longest link %d", streamSpan, want)
	}
}

// TestDepSpanRegistry checks the recorded span and every kernel's stream
// bound on each registry benchmark at quick scale, plus DOBFS, which has
// no streaming form, on every dataset.
func TestDepSpanRegistry(t *testing.T) {
	for _, d := range workload.Datasets {
		for _, algo := range workload.AllAlgorithms {
			b := workload.Benchmark{Algo: algo, Dataset: d.Name}
			t.Run(b.String(), func(t *testing.T) {
				tr, err := workload.GenerateTrace(b, workload.Quick, 4)
				if err != nil {
					t.Fatal(err)
				}
				st, err := workload.GenerateStream(b, workload.Quick, 4, trace.StreamConfig{})
				if err != nil {
					t.Fatal(err)
				}
				checkSpan(t, tr, st.DepSpan())
			})
		}
		t.Run("DOBFS-"+d.Name, func(t *testing.T) {
			g, err := workload.Graph(d.Name, workload.Quick, false)
			if err != nil {
				t.Fatal(err)
			}
			opt := trace.Options{Cores: 4, MaxEvents: workload.Quick.MaxEvents()}
			tr, _ := trace.DOBFS(g, g.Transpose(), graph.LargestComponentSource(g), 0, 0, opt)
			checkSpan(t, tr, -1)
		})
	}
}

// hubGraph is a weighted directed graph on which CC's hooking store
// lands on the last edge of its longest edge loop: vertex 0 relabels m
// to 0 first, then hub m+1 scans 1..m, hooking onto 1 at its first edge
// and onto m's label 0 at its last. In between, every edge ends in a
// store, so the hook reaches back 3m+1 events.
func hubGraph(t *testing.T, m int) *graph.CSR {
	t.Helper()
	hub := uint32(m + 1)
	edges := []graph.Edge{{U: 0, V: uint32(m), W: 1}}
	for v := 1; v <= m; v++ {
		edges = append(edges, graph.Edge{U: hub, V: uint32(v), W: int32(v)})
	}
	g, err := graph.FromEdges(edges, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDepSpanKernels runs every kernel, materialized and streamed, over
// a weighted kron graph and over hubGraph, where CC's span is the
// largest its bound allows.
func TestDepSpanKernels(t *testing.T) {
	kron, err := graph.Kron(10, 8, graph.GenOptions{Seed: 3, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	const m = 300
	for _, tc := range []struct {
		name string
		g    *graph.CSR
	}{{"kron-weighted", kron}, {"hub", hubGraph(t, m)}} {
		g, tg := tc.g, tc.g.Transpose()
		src := graph.LargestComponentSource(g)
		sources := []uint32{src, uint32(g.NumVertices() / 2)}
		opt := trace.Options{Cores: 4, PRIters: 2}
		cfg := trace.StreamConfig{}
		kernels := []struct {
			name   string
			trace  func() *trace.Trace
			stream func() *trace.Stream
		}{
			{"PR", func() *trace.Trace { tr, _ := trace.PageRank(g, tg, opt); return tr },
				func() *trace.Stream { return trace.StreamPageRank(g, tg, opt, cfg) }},
			{"BFS", func() *trace.Trace { tr, _ := trace.BFS(g, src, opt); return tr },
				func() *trace.Stream { return trace.StreamBFS(g, src, opt, cfg) }},
			{"SSSP", func() *trace.Trace { tr, _ := trace.SSSP(g, src, 0, opt); return tr },
				func() *trace.Stream { return trace.StreamSSSP(g, src, 0, opt, cfg) }},
			{"CC", func() *trace.Trace { tr, _ := trace.CC(g, opt); return tr },
				func() *trace.Stream { return trace.StreamCC(g, opt, cfg) }},
			{"BC", func() *trace.Trace { tr, _ := trace.BC(g, sources, opt); return tr },
				func() *trace.Stream { return trace.StreamBC(g, sources, opt, cfg) }},
			{"DOBFS", func() *trace.Trace { tr, _ := trace.DOBFS(g, tg, src, 0, 0, opt); return tr }, nil},
		}
		for _, k := range kernels {
			t.Run(tc.name+"/"+k.name, func(t *testing.T) {
				tr := k.trace()
				streamSpan := -1
				if k.stream != nil {
					streamSpan = k.stream().DepSpan()
				}
				checkSpan(t, tr, streamSpan)
				if tc.name == "hub" && k.name == "CC" && tr.DepSpan != 3*m+1 {
					t.Errorf("hub CC span %d, want the late hook's 3m+1 = %d", tr.DepSpan, 3*m+1)
				}
			})
		}
	}
}

// TestSliceSource pins the one-batch source a materialized trace feeds
// each core through: the whole slice once, then end of stream, and a
// fresh source per call.
func TestSliceSource(t *testing.T) {
	evs := []trace.Event{{Dep: trace.NoDep}, {Dep: 0}}
	tr := &trace.Trace{PerCore: [][]trace.Event{evs, nil}}
	for i := 0; i < 2; i++ {
		src := tr.Source(0)
		if got := src.Next(nil); len(got) != 2 || &got[0] != &evs[0] {
			t.Fatalf("call %d: first batch %v, want the core's slice", i, got)
		}
		if got := src.Next(evs); got != nil {
			t.Fatalf("call %d: second batch %v, want end of stream", i, got)
		}
	}
	if got := tr.Source(1).Next(nil); got != nil {
		t.Fatalf("empty stream served %v, want end of stream", got)
	}
}
