package graph

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, edges []Edge, opt BuildOptions) *CSR {
	t.Helper()
	g, err := FromEdges(edges, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 0}}
	g := mustBuild(t, edges, BuildOptions{})
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("Neighbors(2) = %v, want [0]", got)
	}
	if g.Degree(1) != 1 {
		t.Errorf("Degree(1) = %d, want 1", g.Degree(1))
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := mustBuild(t, nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	g2 := mustBuild(t, nil, BuildOptions{NumVertices: 5})
	if g2.NumVertices() != 5 || g2.NumEdges() != 0 {
		t.Fatalf("vertex-only graph: %v", g2)
	}
	if d := g2.Degree(4); d != 0 {
		t.Fatalf("Degree(4) = %d, want 0", d)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	_, err := FromEdges([]Edge{{U: 0, V: 9}}, BuildOptions{NumVertices: 3})
	if err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFromEdgesSymmetrize(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("Neighbors(1) = %v, want [0]", got)
	}
}

func TestFromEdgesDedupeAndSelfLoops(t *testing.T) {
	edges := []Edge{{U: 1, V: 1}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 0, V: 2}}
	g := mustBuild(t, edges, BuildOptions{Dedupe: true, DropSelfLoops: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
}

func TestWeightedGraph(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 7}, {U: 0, V: 2, W: 3}}
	g := mustBuild(t, edges, BuildOptions{Weighted: true})
	if !g.Weighted() {
		t.Fatal("Weighted() = false")
	}
	if w := g.NeighborWeights(0); !reflect.DeepEqual(w, []int32{7, 3}) {
		t.Errorf("NeighborWeights(0) = %v, want [7 3]", w)
	}
	if g.WeightAt(1) != 3 {
		t.Errorf("WeightAt(1) = %d, want 3", g.WeightAt(1))
	}
}

func TestUnweightedPanics(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}}, BuildOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("NeighborWeights on unweighted graph did not panic")
		}
	}()
	g.NeighborWeights(0)
}

func TestTranspose(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 6}, {U: 2, V: 1, W: 7}}
	g := mustBuild(t, edges, BuildOptions{Weighted: true})
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if got := tr.Neighbors(1); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("transpose Neighbors(1) = %v, want [0 2]", got)
	}
	// Weight follows the edge 0->1 (w=5) and 2->1 (w=7).
	if w := tr.NeighborWeights(1); !reflect.DeepEqual(w, []int32{5, 7}) {
		t.Errorf("transpose weights(1) = %v, want [5 7]", w)
	}
	// Transposing twice restores the original.
	back := tr.Transpose()
	if !reflect.DeepEqual(back.offsets, g.offsets) || !reflect.DeepEqual(back.neigh, g.neigh) {
		t.Error("double transpose != original")
	}
}

// propEdges converts quick-generated raw pairs into a bounded edge list.
func propEdges(raw []uint32, n int) []Edge {
	edges := make([]Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, Edge{U: raw[i] % uint32(n), V: raw[i+1] % uint32(n), W: int32(raw[i]%100) + 1})
	}
	return edges
}

func TestPropCSRPreservesEdgeMultiset(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 64
		edges := propEdges(raw, n)
		g, err := FromEdges(edges, BuildOptions{NumVertices: n})
		if err != nil || g.Validate() != nil {
			return false
		}
		// Reconstruct the edge multiset from the CSR.
		var got, want []uint64
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(uint32(u)) {
				got = append(got, uint64(u)<<32|uint64(v))
			}
		}
		for _, e := range edges {
			want = append(want, uint64(e.U)<<32|uint64(e.V))
		}
		slices.Sort(got)
		slices.Sort(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 48
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n, Weighted: true})
		if err != nil {
			return false
		}
		back := g.Transpose().Transpose()
		return reflect.DeepEqual(back.offsets, g.offsets) &&
			reflect.DeepEqual(back.neigh, g.neigh) &&
			reflect.DeepEqual(back.weights, g.weights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropDegreeSumEqualsEdges(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 32
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n})
		if err != nil {
			return false
		}
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(uint32(v)))
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 40
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if !slices.IsSorted(g.Neighbors(uint32(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceFromEdges is the sort-and-scan construction FromEdges replaced:
// copy every kept edge (and its reverse when symmetrizing) into one work
// list, sort it by (U, V, W), and keep the first of each (U, V) run, which
// is the smallest weight. FromEdges must build exactly this CSR.
func referenceFromEdges(edges []Edge, opt BuildOptions) (*CSR, error) {
	n := max(opt.NumVertices, 0)
	for _, e := range edges {
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	if opt.NumVertices > 0 {
		for _, e := range edges {
			if int(e.U) >= opt.NumVertices || int(e.V) >= opt.NumVertices {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, opt.NumVertices)
			}
		}
		n = opt.NumVertices
	}
	var work []Edge
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		if !opt.Weighted {
			e.W = 0
		}
		work = append(work, e)
		if opt.Symmetrize && e.U != e.V {
			work = append(work, Edge{U: e.V, V: e.U, W: e.W})
		}
	}
	slices.SortFunc(work, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V), cmp.Compare(x.W, y.W))
	})
	if opt.Dedupe {
		work = slices.CompactFunc(work, func(x, y Edge) bool { return x.U == y.U && x.V == y.V })
	}
	g := &CSR{offsets: make([]int64, n+1), neigh: make([]uint32, len(work))}
	if opt.Weighted {
		g.weights = make([]int32, len(work))
	}
	for i, e := range work {
		g.offsets[e.U+1]++
		g.neigh[i] = e.V
		if opt.Weighted {
			g.weights[i] = e.W
		}
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g, nil
}

// unpack turns packed edges, and their weights when ws is not nil, back
// into Edges.
func unpack(uv []uint64, ws []int32) []Edge {
	edges := make([]Edge, len(uv))
	for i, e := range uv {
		edges[i] = Edge{U: uint32(e >> 32), V: uint32(e)}
		if ws != nil {
			edges[i].W = ws[i]
		}
	}
	return edges
}

// sameCSR reports whether two CSRs hold the same offsets, neighbors and
// weights (nil weights only match nil weights).
func sameCSR(a, b *CSR) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.neigh, b.neigh) &&
		(a.weights == nil) == (b.weights == nil) && slices.Equal(a.weights, b.weights)
}

// randomEdges draws m edges over n vertices with small, possibly negative
// weights, so self loops and duplicates with differing weights are common.
func randomEdges(r *RNG, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n)), W: int32(r.Intn(9)) - 4}
	}
	return edges
}

// denseEdges draws m edges over n vertices, half of them from vertex 0,
// so with tens of edges per vertex vertex 0's list passes radixMin and
// every list is full of duplicate neighbors. Weights span ±1000, so
// parallel edges mostly differ in weight.
func denseEdges(r *RNG, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := 0
		if r.Intn(2) == 0 {
			u = r.Intn(n)
		}
		edges[i] = Edge{U: uint32(u), V: uint32(r.Intn(n)), W: int32(r.Intn(2001)) - 1000}
	}
	return edges
}

// TestFromEdgesMatchesReference checks FromEdges against the reference
// construction on random edge lists under every combination of options,
// including a NumVertices too small for the IDs, which both must reject
// with the same error. The first 200 trials draw at most 4n edges; the
// last 100 draw up to 40n dense ones, whose long lists take the radix
// sort and whose edges are split among up to three count-and-scatter
// workers. It builds each list with one, two and three workers, so the
// graphs of fewer than three vertices also sort empty runs.
func TestFromEdgesMatchesReference(t *testing.T) {
	r := NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(24)
		edges := randomEdges(r, n, r.Intn(4*n+1))
		if trial >= 200 {
			edges = denseEdges(r, n, r.Intn(40*n+1))
		}
		for mask := 0; mask < 16; mask++ {
			for _, nv := range []int{0, n - 1, n, n + 3} {
				opt := BuildOptions{
					NumVertices:   nv,
					Symmetrize:    mask&1 != 0,
					Dedupe:        mask&2 != 0,
					DropSelfLoops: mask&4 != 0,
					Weighted:      mask&8 != 0,
				}
				want, wantErr := referenceFromEdges(edges, opt)
				for _, workers := range []int{1, 2, 3} {
					got, err := fromEdges(edges, opt, workers)
					if wantErr != nil || err != nil {
						if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
							t.Fatalf("trial %d %+v, %d workers: error %v, want %v", trial, opt, workers, err, wantErr)
						}
						continue
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("trial %d %+v, %d workers: %v", trial, opt, workers, err)
					}
					if !sameCSR(got, want) {
						t.Fatalf("trial %d %+v, %d workers on %v:\n got %v %v %v\nwant %v %v %v", trial, opt, workers, edges,
							got.offsets, got.neigh, got.weights, want.offsets, want.neigh, want.weights)
					}
				}
			}
		}
	}
}

// FuzzFromEdges decodes the fuzz bytes into a build and checks it
// against referenceFromEdges. The first byte holds the four BuildOptions
// flags (bits 0–3), whether NumVertices is fixed at n (bit 4) and the
// worker count, 1–4 (bits 5–6); the second sets n, 1–64; each later
// three bytes are one edge: source and destination mod n and a signed
// weight byte.
func FuzzFromEdges(f *testing.F) {
	// hub is radixMin edges from vertex 0 of 4, on 4 workers: vertex 0's
	// list reaches radixMin, the edges are counted and scattered by 4
	// workers, and parallel edges differ in weight.
	hub := func(flags byte) []byte {
		b := []byte{flags | 0x60, 3}
		for i := range radixMin {
			b = append(b, 0, byte(i), byte(i*37))
		}
		return b
	}
	for _, seed := range [][]byte{
		hub(0x03), // symmetrized, deduped
		hub(0x0b), // symmetrized, deduped, weighted
		{0x7b, 3, 0, 1, 5, 0, 1, 0xfd, 1, 0, 9, 2, 1, 4, 2, 2, 7},
		{0x46, 5, 1, 1, 0, 1, 1, 0, 4, 0, 0},
		{0x00, 1},
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		flags, n := data[0], 1+int(data[1]%64)
		opt := BuildOptions{
			Symmetrize:    flags&1 != 0,
			Dedupe:        flags&2 != 0,
			DropSelfLoops: flags&4 != 0,
			Weighted:      flags&8 != 0,
		}
		if flags&16 != 0 {
			opt.NumVertices = n
		}
		workers := 1 + int(flags>>5&3)
		var edges []Edge
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			edges = append(edges, Edge{U: uint32(int(b[0]) % n), V: uint32(int(b[1]) % n), W: int32(int8(b[2]))})
		}
		got, err := fromEdges(edges, opt, workers)
		if err != nil {
			t.Fatalf("%+v, %d workers: %v", opt, workers, err)
		}
		want, err := referenceFromEdges(edges, opt)
		if err != nil {
			t.Fatalf("%+v: reference: %v", opt, err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("%+v, %d workers on %v:\n got %v %v %v\nwant %v %v %v", opt, workers, edges,
				got.offsets, got.neigh, got.weights, want.offsets, want.neigh, want.weights)
		}
	})
}

// TestRadixSortMatchesSlicesSort checks the radix sort against
// slices.Sort on lists around radixMin long and one of 1000, for vertex
// counts that need one, two and three passes, on random lists holding
// the largest ID and on all-equal, sorted and reversed ones. One sorter
// sorts every list of a vertex count, as one worker's does.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	r := NewRNG(5)
	for _, tc := range []struct{ n, passes int }{
		{1, 1}, {2, 1}, {1 << 11, 1}, {1<<11 + 1, 2}, {1 << 17, 2}, {1 << 22, 2}, {1<<22 + 1, 3}, {MaxVertices, 3},
	} {
		rs := newRadixSorter(tc.n)
		if rs.passes != tc.passes {
			t.Errorf("%d vertices: %d passes, want %d", tc.n, rs.passes, tc.passes)
		}
		top := uint32(tc.n - 1)
		for _, length := range []int{radixMin - 1, radixMin, radixMin + 1, 1000} {
			random := make([]uint32, length)
			for i := range random {
				random[i] = uint32(r.Intn(tc.n))
			}
			random[length/2] = top
			sorted := slices.Sorted(slices.Values(random))
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			for _, list := range []struct {
				name string
				ids  []uint32
			}{
				{"random", random}, {"all-equal", slices.Repeat([]uint32{top}, length)},
				{"sorted", sorted}, {"reversed", reversed},
			} {
				got := slices.Clone(list.ids)
				rs.sort(got)
				if want := slices.Sorted(slices.Values(list.ids)); !slices.Equal(got, want) {
					t.Fatalf("%d vertices, %s list of %d: radix sort gives %v, want %v", tc.n, list.name, length, got, want)
				}
			}
		}
	}
}

// TestFromEdgesVertexBound checks that a vertex count, or an ID that
// would size the graph, beyond MaxVertices is an error naming it; the
// build stops before allocating anything of that size.
func TestFromEdgesVertexBound(t *testing.T) {
	for _, tc := range []struct {
		edges []Edge
		opt   BuildOptions
		name  string
	}{
		{[]Edge{{U: MaxVertices, V: 0}}, BuildOptions{}, "1073741824"},
		{[]Edge{{U: 0, V: 1}, {U: 2, V: math.MaxUint32}}, BuildOptions{Dedupe: true}, "4294967295"},
		{nil, BuildOptions{NumVertices: MaxVertices + 1}, "1073741825"},
	} {
		_, err := FromEdges(tc.edges, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%v %+v: error %v, want one naming %s", tc.edges, tc.opt, err, tc.name)
		}
	}
}

// TestWeightedDuplicatesKeepSmallest pins the dedupe rule: whatever the
// input order, a duplicated pair keeps its smallest weight in both
// directions, and without Dedupe parallel edges come out lightest first.
func TestWeightedDuplicatesKeepSmallest(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: -2}, {U: 0, V: 1, W: 4}}
	g := mustBuild(t, edges, BuildOptions{Symmetrize: true, Dedupe: true, Weighted: true})
	if w0, w1 := g.NeighborWeights(0), g.NeighborWeights(1); !slices.Equal(w0, []int32{-2}) || !slices.Equal(w1, []int32{-2}) {
		t.Errorf("deduped weights 0→1 %v, 1→0 %v, want [-2] both", w0, w1)
	}
	g = mustBuild(t, edges, BuildOptions{Weighted: true})
	if w := g.NeighborWeights(0); !slices.Equal(w, []int32{4, 9}) {
		t.Errorf("parallel 0→1 weights %v, want [4 9]", w)
	}
}

// TestTransposeOfSymmetrized checks that a symmetrized graph's Transpose
// is the graph itself, and that the general transpose computes the same
// arrays, so skipping it changes nothing.
func TestTransposeOfSymmetrized(t *testing.T) {
	r := NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(24)
		edges := randomEdges(r, n, r.Intn(4*n+1))
		for mask := 0; mask < 8; mask++ {
			opt := BuildOptions{
				Symmetrize:    true,
				Dedupe:        mask&1 != 0,
				DropSelfLoops: mask&2 != 0,
				Weighted:      mask&4 != 0,
			}
			g := mustBuild(t, edges, opt)
			if g.Transpose() != g {
				t.Fatalf("trial %d %+v: Transpose of a symmetrized graph is a copy", trial, opt)
			}
			if !sameCSR(g.transpose(), g) {
				t.Fatalf("trial %d %+v: general transpose differs from the graph", trial, opt)
			}
		}
		if g := mustBuild(t, edges, BuildOptions{Weighted: true}); g.Transpose() == g {
			t.Fatalf("trial %d: Transpose of a directed graph returned the receiver", trial)
		}
	}
}
