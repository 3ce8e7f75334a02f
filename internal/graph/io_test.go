package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
0 1
1 2 7
% another comment

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph = %v", g)
	}
	if got := g.Neighbors(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	in := "0 1 5\n1 0 9\n0 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{Weighted: true})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	if w := g.NeighborWeights(0); w[0] != 5 || w[1] != 1 {
		t.Errorf("weights(0) = %v (missing weight should default to 1)", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                // too few fields
		"x 1\n",              // bad source
		"0 y\n",              // bad destination
		"0 1 zzz\n",          // bad weight
		"0 99999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), BuildOptions{}); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	orig, err := Kron(9, 8, GenOptions{Seed: 3, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf, BuildOptions{NumVertices: orig.NumVertices(), Weighted: true})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if back.NumEdges() != orig.NumEdges() {
		t.Fatalf("edges = %d, want %d", back.NumEdges(), orig.NumEdges())
	}
	for u := 0; u < orig.NumVertices(); u++ {
		a, b := orig.Neighbors(uint32(u)), back.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] || orig.NeighborWeights(uint32(u))[i] != back.NeighborWeights(uint32(u))[i] {
				t.Fatalf("vertex %d edge %d mismatch", u, i)
			}
		}
	}
}

func TestEdgeListRoundTripUnweighted(t *testing.T) {
	orig, err := Grid(10, 10, GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, BuildOptions{NumVertices: orig.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != orig.NumEdges() || back.Weighted() {
		t.Fatalf("round trip: %v", back)
	}
}

// FuzzReadEdgeList feeds arbitrary bytes to ReadEdgeList, with the four
// BuildOptions flags taken from the first byte and NumVertices fixed at
// 1<<10, so a fuzzed ID can never size the graph. It must never panic. A
// graph it accepts must be valid, with every list sorted (strictly under
// Dedupe) and free of self loops under DropSelfLoops; a symmetrized one
// must equal its general transpose; and it must equal the parsed edges
// built by one worker and by referenceFromEdges.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"\x0f# comment\n% another\n\n0 1\n1 2\n2 0\n",
		"\x0b0 1 5\n0 1 -3\n1 0 9\n2 1 4\n0 2\n",
		"\x060 1\n0 1\n1 1\n1 0\n2 2 7\n",
		"\x0c3 3 1\n3 4 2\n4 3 2\n3 3 5\n",
		"\x000 1024\n",
		"\x010 x\n",
		"\x08 0 1 2147483648\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var flags byte
		if len(data) > 0 {
			flags, data = data[0], data[1:]
		}
		opt := BuildOptions{
			NumVertices:   1 << 10,
			Symmetrize:    flags&1 != 0,
			Dedupe:        flags&2 != 0,
			DropSelfLoops: flags&4 != 0,
			Weighted:      flags&8 != 0,
		}
		g, err := ReadEdgeList(bytes.NewReader(data), opt)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		for u := range uint32(g.NumVertices()) {
			nb := g.Neighbors(u)
			for i := 1; i < len(nb); i++ {
				if nb[i] < nb[i-1] || opt.Dedupe && nb[i] == nb[i-1] {
					t.Fatalf("%+v: vertex %d's list %v is not sorted", opt, u, nb)
				}
			}
			if opt.DropSelfLoops && slices.Contains(nb, u) {
				t.Fatalf("%+v: vertex %d keeps a self loop", opt, u)
			}
		}
		if opt.Symmetrize && !sameCSR(g.transpose(), g) {
			t.Fatalf("%+v: symmetrized graph differs from its transpose", opt)
		}
		uv, ws, err := parseEdgeList(bytes.NewReader(data), opt.Weighted)
		if err != nil {
			t.Fatalf("parseEdgeList rejects what ReadEdgeList accepted: %v", err)
		}
		one, err := build(uv, ws, opt, 1)
		if err != nil {
			t.Fatalf("%+v: one worker: %v", opt, err)
		}
		edges := unpack(uv, ws)
		ref, err := referenceFromEdges(edges, opt)
		if err != nil {
			t.Fatalf("%+v: reference: %v", opt, err)
		}
		if !sameCSR(g, one) || !sameCSR(g, ref) {
			t.Fatalf("%+v: graph differs from the one-worker or reference build of %v", opt, edges)
		}
	})
}
