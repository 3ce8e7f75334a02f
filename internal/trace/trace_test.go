package trace

import (
	"math"
	"testing"

	"droplet/internal/algo"
	"droplet/internal/graph"
	"droplet/internal/mem"
)

func testGraph(t *testing.T, seed uint64, weighted bool) *graph.CSR {
	t.Helper()
	g, err := graph.Kron(8, 6, graph.GenOptions{Seed: seed, Weighted: weighted, Symmetrize: true})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	return g
}

func checkWellFormed(t *testing.T, tr *Trace) {
	t.Helper()
	as := tr.Layout.AS
	barriers := -1
	for c, stream := range tr.PerCore {
		nb := 0
		for i, ev := range stream {
			switch ev.Kind {
			case KindBarrier:
				nb++
				continue
			case KindLoad, KindStore:
			default:
				t.Fatalf("core %d event %d: bad kind %d", c, i, ev.Kind)
			}
			if got := as.TypeOf(ev.Addr); got != ev.DType {
				t.Fatalf("core %d event %d: addr %#x tagged %v but region is %v", c, i, ev.Addr, ev.DType, got)
			}
			if _, ok := as.Translate(ev.Addr); !ok {
				t.Fatalf("core %d event %d: unmapped address %#x", c, i, ev.Addr)
			}
			if ev.Dep != NoDep {
				if ev.Dep < 0 || int(ev.Dep) >= i {
					t.Fatalf("core %d event %d: dep %d out of range", c, i, ev.Dep)
				}
				if stream[ev.Dep].Kind != KindLoad {
					t.Fatalf("core %d event %d: dep %d is not a load", c, i, ev.Dep)
				}
			}
		}
		if barriers == -1 {
			barriers = nb
		} else if nb != barriers {
			t.Fatalf("core %d has %d barriers, core 0 has %d", c, nb, barriers)
		}
	}
	if tr.Instructions < tr.Events() {
		t.Fatalf("instructions %d < events %d", tr.Instructions, tr.Events())
	}
}

func TestPageRankTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 1, false)
	gt := g.Transpose()
	tr, scores := PageRank(g, gt, Options{Cores: 4, PRIters: 8})
	want := algo.PageRank(g, algo.PageRankOptions{MaxIters: 8, Transpose: gt})
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("scores[%d] = %v, want %v", i, scores[i], want[i])
		}
	}
	checkWellFormed(t, tr)
	if tr.Events() == 0 {
		t.Fatal("no events emitted")
	}
}

func TestBFSTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 2, false)
	src := graph.LargestComponentSource(g)
	tr, depth := BFS(g, src, Options{Cores: 4})
	want := algo.BFS(g, src)
	for i := range want {
		if depth[i] != want[i] {
			t.Fatalf("depth[%d] = %d, want %d", i, depth[i], want[i])
		}
	}
	checkWellFormed(t, tr)
}

func TestSSSPTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 3, true)
	src := graph.LargestComponentSource(g)
	tr, dist := SSSP(g, src, 4, Options{Cores: 4})
	want := algo.SSSP(g, src, 4)
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
	checkWellFormed(t, tr)
}

func TestCCTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 4, false)
	tr, comp := CC(g, Options{Cores: 4})
	want := algo.CC(g)
	for i := range want {
		if comp[i] != want[i] {
			t.Fatalf("comp[%d] = %d, want %d", i, comp[i], want[i])
		}
	}
	checkWellFormed(t, tr)
}

func TestBCTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 5, false)
	src := graph.LargestComponentSource(g)
	sources := []uint32{src, src / 2}
	tr, bc := BC(g, sources, Options{Cores: 4})
	want := algo.BC(g, sources)
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc[%d] = %v, want %v", i, bc[i], want[i])
		}
	}
	checkWellFormed(t, tr)
}

func TestTraceBudgetTruncation(t *testing.T) {
	g := testGraph(t, 6, false)
	gt := g.Transpose()
	full, wantScores := PageRank(g, gt, Options{Cores: 2, PRIters: 6})
	if full.Truncated {
		t.Fatal("unexpected truncation without budget")
	}
	capped, scores := PageRank(g, gt, Options{Cores: 2, PRIters: 6, MaxEvents: 1000})
	if !capped.Truncated {
		t.Fatal("expected truncation")
	}
	if capped.Events() > 1000+2 { // barrier slop
		t.Fatalf("stored %d events, budget 1000", capped.Events())
	}
	// Results must be exact even when the trace is truncated.
	for i := range wantScores {
		if scores[i] != wantScores[i] {
			t.Fatalf("truncated run diverged at %d", i)
		}
	}
	checkWellFormed(t, capped)
}

func TestTraceCoreCountsRespected(t *testing.T) {
	g := testGraph(t, 7, false)
	for _, cores := range []int{1, 2, 4, 8} {
		tr, _ := CC(g, Options{Cores: cores})
		if tr.NumCores() != cores {
			t.Fatalf("NumCores = %d, want %d", tr.NumCores(), cores)
		}
		// Work should actually be distributed.
		if cores > 1 {
			empty := 0
			for _, s := range tr.PerCore {
				loads := 0
				for _, ev := range s {
					if ev.Kind == KindLoad {
						loads++
					}
				}
				if loads == 0 {
					empty++
				}
			}
			if empty == cores {
				t.Fatal("no core executed any loads")
			}
		}
	}
}

func TestAnalyzeDependenciesShape(t *testing.T) {
	g := testGraph(t, 8, false)
	gt := g.Transpose()
	tr, _ := PageRank(g, gt, Options{Cores: 4, PRIters: 4})
	s := AnalyzeDependencies(tr, 128)

	if s.TotalLoads == 0 {
		t.Fatal("no loads analyzed")
	}
	// Observation #3: property is mostly a consumer, structure mostly a
	// producer. These are the paper's core data-type asymmetries.
	if pc := s.ConsumerFraction(mem.Property); pc < 0.3 {
		t.Errorf("property consumer fraction = %.2f, want >= 0.3", pc)
	}
	if sp := s.ProducerFraction(mem.Structure); sp < 0.3 {
		t.Errorf("structure producer fraction = %.2f, want >= 0.3", sp)
	}
	if sc := s.ConsumerFraction(mem.Structure); sc > 0.35 {
		t.Errorf("structure consumer fraction = %.2f, want small", sc)
	}
	// Observation #2: chains are short.
	if s.Chains == 0 {
		t.Fatal("no chains found")
	}
	if s.AvgChainLen < 1.5 || s.AvgChainLen > 6 {
		t.Errorf("avg chain length = %.2f, want short (1.5..6)", s.AvgChainLen)
	}
	if f := s.InChainFraction(); f < 0.2 || f > 0.95 {
		t.Errorf("in-chain fraction = %.2f, want significant", f)
	}
}

func TestAnalyzeDependenciesROBWindow(t *testing.T) {
	// A producer farther than the ROB size cannot constrain the consumer.
	l := &Layout{AS: mem.NewAddressSpace()}
	r := l.AS.Malloc("p", mem.PageSize, mem.Property)
	tr, _ := materialize(l, 1, 0, func(b Sink) struct{} {
		dep := b.Load(0, r.Base, mem.Property, NoDep)
		b.Compute(0, 1000) // push the consumer 1000 instructions away
		b.Load(0, r.Base+64, mem.Property, dep)
		return struct{}{}
	})

	wide := AnalyzeDependencies(tr, 2048)
	if wide.ConsumerLoads != 1 {
		t.Errorf("wide ROB: consumers = %d, want 1", wide.ConsumerLoads)
	}
	narrow := AnalyzeDependencies(tr, 128)
	if narrow.ConsumerLoads != 0 {
		t.Errorf("narrow ROB: consumers = %d, want 0", narrow.ConsumerLoads)
	}
}

func TestLayoutAddressing(t *testing.T) {
	g := testGraph(t, 9, true)
	l := NewLayout(g)
	if l.StructEntry != 8 {
		t.Errorf("weighted StructEntry = %d, want 8", l.StructEntry)
	}
	if !l.Structure.Contains(l.StructAddr(0)) || !l.Structure.Contains(l.StructAddr(g.NumEdges()-1)) {
		t.Error("structure addresses out of region")
	}
	if !l.Offsets.Contains(l.OffsetAddr(uint32(g.NumVertices()))) {
		t.Error("last offset address out of region")
	}
	p := l.AddProperty("x", g.NumVertices())
	if !p.Contains(l.PropAddr(p, uint32(g.NumVertices()-1))) {
		t.Error("property address out of region")
	}
	if len(l.Properties) != 1 {
		t.Errorf("Properties = %d, want 1", len(l.Properties))
	}
	// Unweighted layout uses 4-byte entries.
	l2 := NewLayout(testGraph(t, 9, false))
	if l2.StructEntry != 4 {
		t.Errorf("unweighted StructEntry = %d, want 4", l2.StructEntry)
	}
}

func TestBuilderComputeSaturation(t *testing.T) {
	l := &Layout{AS: mem.NewAddressSpace()}
	r := l.AS.Malloc("p", mem.PageSize, mem.Intermediate)
	tr, _ := materialize(l, 1, 0, func(b Sink) struct{} {
		b.Compute(0, 100000) // exceeds uint16
		b.Load(0, r.Base, mem.Intermediate, NoDep)
		return struct{}{}
	})
	if tr.PerCore[0][0].Comp != 0xffff {
		t.Errorf("Comp = %d, want saturated 0xffff", tr.PerCore[0][0].Comp)
	}
	if tr.Instructions != 100001 {
		t.Errorf("Instructions = %d, want exact 100001", tr.Instructions)
	}
}

func TestDOBFSTraceMatchesReference(t *testing.T) {
	g := testGraph(t, 21, false)
	gt := g.Transpose()
	src := graph.LargestComponentSource(g)
	for _, alpha := range []int{1, 15} {
		tr, depth := DOBFS(g, gt, src, alpha, 18, Options{Cores: 4})
		want := algo.DOBFS(g, gt, src, algo.DOBFSOptions{Alpha: alpha, Beta: 18})
		for i := range want {
			if depth[i] != want[i] {
				t.Fatalf("alpha %d: depth[%d] = %d, want %d", alpha, i, depth[i], want[i])
			}
		}
		checkWellFormed(t, tr)
		if tr.Events() == 0 {
			t.Fatal("empty trace")
		}
	}
}

func TestDOBFSBottomUpPhaseOccurs(t *testing.T) {
	// With alpha=1 the bottom-up switch triggers; the trace must contain
	// intermediate loads of the bitmap region.
	g := testGraph(t, 22, false)
	gt := g.Transpose()
	src := graph.LargestComponentSource(g)
	tr, _ := DOBFS(g, gt, src, 1, 2, Options{Cores: 2})
	found := false
	for _, stream := range tr.PerCore {
		for _, ev := range stream {
			if ev.Kind == KindLoad && ev.DType == mem.Intermediate &&
				tr.Layout.AS.TypeOf(ev.Addr) == mem.Intermediate {
				found = true
			}
		}
	}
	if !found {
		t.Error("no bitmap traffic in bottom-up phase")
	}
}
