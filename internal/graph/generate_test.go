package graph

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestKronDeterministicAndValid(t *testing.T) {
	g1, err := Kron(8, 8, GenOptions{Seed: 42})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if err := g1.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g1.NumVertices() != 256 {
		t.Fatalf("NumVertices = %d, want 256", g1.NumVertices())
	}
	g2, err := Kron(8, 8, GenOptions{Seed: 42})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	g3, err := Kron(8, 8, GenOptions{Seed: 43})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if g1.NumEdges() == g3.NumEdges() && equalNeigh(g1, g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalNeigh(a, b *CSR) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := int64(0); i < a.NumEdges(); i++ {
		if a.NeighborAt(i) != b.NeighborAt(i) {
			return false
		}
	}
	return true
}

func TestKronIsSkewed(t *testing.T) {
	g, err := Kron(10, 8, GenOptions{Seed: 7})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini < 0.4 {
		t.Errorf("kron Gini = %.3f, want heavy-tailed (>= 0.4)", s.Gini)
	}
	if s.Max < 8*s.Median {
		t.Errorf("kron max degree %d not ≫ median %d", s.Max, s.Median)
	}
}

func TestUniformIsBalanced(t *testing.T) {
	g, err := Uniform(10, 8, GenOptions{Seed: 7})
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini > 0.25 {
		t.Errorf("urand Gini = %.3f, want balanced (<= 0.25)", s.Gini)
	}
	if s.Isolated > g.NumVertices()/10 {
		t.Errorf("urand has %d isolated vertices", s.Isolated)
	}
}

func TestGridShape(t *testing.T) {
	g, err := Grid(20, 30, GenOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 600 {
		t.Fatalf("NumVertices = %d, want 600", g.NumVertices())
	}
	s := ComputeDegreeStats(g)
	if s.Mean < 3 || s.Mean > 5 {
		t.Errorf("grid mean degree = %.2f, want ~4", s.Mean)
	}
	// Grid with shortcuts should be one component.
	if c := ConnectedComponentsCount(g); c != 1 {
		t.Errorf("grid components = %d, want 1", c)
	}
}

func TestWeightedGeneration(t *testing.T) {
	g, err := Kron(7, 6, GenOptions{Seed: 3, Weighted: true, MaxWeight: 10})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("expected weighted graph")
	}
	for i := int64(0); i < g.NumEdges(); i++ {
		w := g.WeightAt(i)
		if w < 1 || w > 10 {
			t.Fatalf("weight %d at %d out of [1,10]", w, i)
		}
	}
}

func TestSocialNetworkShape(t *testing.T) {
	g, err := SocialNetwork(10, 10, GenOptions{Seed: 5, Symmetrize: true})
	if err != nil {
		t.Fatalf("SocialNetwork: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini < 0.3 {
		t.Errorf("social Gini = %.3f, want skewed (>= 0.3)", s.Gini)
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := RMAT(0, 8, 0.5, 0.2, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT scale 0 should error")
	}
	if _, err := RMAT(5, 0, 0.5, 0.2, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT degree 0 should error")
	}
	if _, err := RMAT(5, 4, 0.6, 0.3, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT bad partition should error")
	}
	if _, err := Uniform(0, 8, GenOptions{}); err == nil {
		t.Error("Uniform scale 0 should error")
	}
	if _, err := Uniform(4, 0, GenOptions{}); err == nil {
		t.Error("Uniform degree 0 should error")
	}
	if _, err := Grid(0, 5, GenOptions{}); err == nil {
		t.Error("Grid 0 rows should error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

// TestRNGSkip checks that a generator skipped n draws returns the
// (n+1)-th draw of the sequence, and goes on from there.
func TestRNGSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 17, 1 << 20} {
		seq, skipped := NewRNG(12), NewRNG(12)
		for range n {
			seq.Uint64()
		}
		skipped.skip(n)
		for i := range 3 {
			if got, want := skipped.Uint64(), seq.Uint64(); got != want {
				t.Fatalf("skip(%d): draw %d is %#x, want %#x", n, n+uint64(i)+1, got, want)
			}
		}
	}
}

// TestBuildIndependentOfWorkers checks that every generator builds the
// same graph, offsets, neighbors, weights and symmetric flag, whatever
// number of workers draws its edges and sorts its lists.
func TestBuildIndependentOfWorkers(t *testing.T) {
	builds := []struct {
		name  string
		build func(opt GenOptions, workers int) (*CSR, error)
	}{
		{"kron", func(opt GenOptions, workers int) (*CSR, error) {
			return rmat(12, 16, 0.57, 0.19, 0.19, opt, workers)
		}},
		{"urand", func(opt GenOptions, workers int) (*CSR, error) { return uniform(11, 8, opt, workers) }},
		{"social", func(opt GenOptions, workers int) (*CSR, error) { return socialNetwork(10, 12, opt, workers) }},
		{"grid", func(opt GenOptions, workers int) (*CSR, error) { return grid(50, 60, opt, workers) }},
	}
	for _, b := range builds {
		for _, weighted := range []bool{false, true} {
			for _, sym := range []bool{false, true} {
				opt := GenOptions{Seed: 8, Weighted: weighted, MaxWeight: 20, Symmetrize: sym}
				want, err := b.build(opt, 1)
				if err != nil {
					t.Fatalf("%s %+v: %v", b.name, opt, err)
				}
				for _, workers := range []int{2, 3, 7} {
					got, err := b.build(opt, workers)
					if err != nil {
						t.Fatalf("%s %+v, %d workers: %v", b.name, opt, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %+v: %d workers built %v, one worker %v", b.name, opt, workers, got, want)
					}
				}
			}
		}
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(1).Perm(100)
	seen := make(map[uint32]bool, 100)
	for _, v := range p {
		if v >= 100 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestDegreeStatsSimple(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, BuildOptions{NumVertices: 4})
	s := ComputeDegreeStats(g)
	if s.Min != 0 || s.Max != 2 || s.Edges != 3 || s.Isolated != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConnectedComponentsCount(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}, BuildOptions{NumVertices: 6})
	// Components: {0,1}, {2,3}, {4}, {5}.
	if c := ConnectedComponentsCount(g); c != 4 {
		t.Errorf("components = %d, want 4", c)
	}
}

func TestLargestComponentSource(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}, {U: 1, V: 0}}, BuildOptions{})
	if s := LargestComponentSource(g); s != 3 {
		t.Errorf("source = %d, want 3", s)
	}
}

// TestWeightedSymmetrizedGraphsAreSymmetric checks that every edge of a
// weighted, symmetrized generated graph has a reverse edge of the same
// weight: duplicates must keep the same weight in both directions.
func TestWeightedSymmetrizedGraphsAreSymmetric(t *testing.T) {
	opt := GenOptions{Seed: 5, Weighted: true, Symmetrize: true}
	for name, gen := range map[string]func(int, int, GenOptions) (*CSR, error){
		"kron": Kron, "urand": Uniform, "social": SocialNetwork,
	} {
		g, err := gen(12, 16, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bad := 0
		for u := 0; u < g.NumVertices(); u++ {
			for i, v := range g.Neighbors(uint32(u)) {
				j, ok := slices.BinarySearch(g.Neighbors(v), uint32(u))
				if !ok || g.NeighborWeights(v)[j] != g.NeighborWeights(uint32(u))[i] {
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d edges lack a reverse edge of equal weight", name, bad, g.NumEdges())
		}
	}
}

// TestRMATThresholdsMatchFloatCompares checks the integer quadrant rule
// RMAT uses against the float compare chain it replaced, on random draws
// and on the draws next to every threshold, for GAP's partitions and for
// degenerate ones (a negative or NaN probability, an empty quadrant).
func TestRMATThresholdsMatchFloatCompares(t *testing.T) {
	float := func(k uint64, a, b, c float64) (u, v uint32) {
		switch p := float64(k) / (1 << 53); {
		case p < a:
		case p < a+b:
			v = 1
		case p < a+b+c:
			u = 1
		default:
			u, v = 1, 1
		}
		return u, v
	}
	r := NewRNG(6)
	for _, p := range [][3]float64{
		{0.57, 0.19, 0.19}, {0.45, 0.22, 0.22}, {0.25, 0.25, 0.25}, {0.1, 0.2, 0.3},
		{0, 0, 0}, {0.5, 0, 0.2}, {0.5, -0.2, 0.3}, {-0.1, 0.4, 0.2}, {0.3, 0.2, -0.4}, {math.NaN(), 0.2, 0.2},
	} {
		a, b, c := p[0], p[1], p[2]
		q := newRMATQuadrants(a, b, c)
		draws := []uint64{0, 1<<53 - 1}
		for _, th := range []uint64{q.a, q.ab, q.abc} {
			draws = append(draws, th-1, th, th+1)
		}
		for range 10000 {
			draws = append(draws, r.Uint64()>>11)
		}
		for _, k := range draws {
			k &= 1<<53 - 1
			u, v := q.pick(k)
			if wu, wv := float(k, a, b, c); u != wu || v != wv {
				t.Fatalf("partition %v, k=%d: integer quadrant (%d,%d), float (%d,%d)", p, k, u, v, wu, wv)
			}
		}
	}
}
