package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"

	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/trace"
)

func TestAlgorithmRegistry(t *testing.T) {
	if len(AllAlgorithms) != 5 {
		t.Fatalf("algorithms = %d, want 5", len(AllAlgorithms))
	}
	names := map[string]bool{}
	for _, a := range AllAlgorithms {
		if a.String() == "" || a.Description() == "" {
			t.Errorf("algorithm %d incomplete", a)
		}
		names[a.String()] = true
	}
	for _, want := range []string{"BC", "BFS", "PR", "SSSP", "CC"} {
		if !names[want] {
			t.Errorf("missing algorithm %s", want)
		}
	}
	if !SSSP.Weighted() || PR.Weighted() {
		t.Error("weighted flags wrong")
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 5 {
		t.Fatalf("datasets = %d, want 5", len(Datasets))
	}
	for _, d := range Datasets {
		if d.Name == "" || d.Kind == "" || d.Paper == "" || d.Build == nil {
			t.Errorf("dataset %+v incomplete", d)
		}
	}
	if _, err := DatasetByName("kron"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("bogus dataset resolved")
	}
}

func TestDatasetShapes(t *testing.T) {
	// Table III's character must survive in the proxies: kron and the
	// social networks are skewed, urand balanced, road a low-degree mesh.
	gini := func(name string) float64 {
		g, err := Graph(name, Quick, false)
		if err != nil {
			t.Fatalf("Graph(%s): %v", name, err)
		}
		return graph.ComputeDegreeStats(g).Gini
	}
	if g := gini("kron"); g < 0.4 {
		t.Errorf("kron gini = %.2f, want skewed", g)
	}
	if g := gini("orkut"); g < 0.3 {
		t.Errorf("orkut gini = %.2f, want skewed", g)
	}
	if g := gini("urand"); g > 0.25 {
		t.Errorf("urand gini = %.2f, want balanced", g)
	}
	road, err := Graph("road", Quick, false)
	if err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeDegreeStats(road)
	if st.Mean > 6 {
		t.Errorf("road mean degree = %.1f, want mesh-like", st.Mean)
	}
}

// TestDatasetCSRDigests pins the SHA-256 of every registry dataset's
// unweighted quick-scale CSR (its offsets, then its neighbor IDs, both
// little-endian), so any drift in how an unweighted graph is generated or
// built fails here.
func TestDatasetCSRDigests(t *testing.T) {
	want := map[string]string{
		"kron":        "028bebf51ca3805418b0bb2a0c5736b0ad859ba92ddc98c37ee383bc8acc1c3c",
		"urand":       "99e4d388380f65113f759c69a896e845087702335b589157909448eff9ffec43",
		"orkut":       "a577c730adb0219bbbd6545b6ffcf6984ad2b267979acc40512550f8d3b81369",
		"livejournal": "ed2f91817b206ae226398888b603da6e6a3c872eb6fc638396a59fc34f3a91bc",
		"road":        "47c986dda331775fe0305bf9d77d6ce3b6614664a76ea423f999a2e1e9c319a9",
	}
	for _, d := range Datasets {
		g, err := Graph(d.Name, Quick, false)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, g.Offsets()); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, g.NeighborIDs()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[d.Name] {
			t.Errorf("%s: quick CSR digest %s, want %s", d.Name, got, want[d.Name])
		}
		if g.Transpose() != g {
			t.Errorf("%s: registry graph is not its own transpose", d.Name)
		}
	}
}

func TestGraphCaching(t *testing.T) {
	g1, err := Graph("kron", Quick, false)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Graph("kron", Quick, false)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("same dataset request returned different graph objects")
	}
	gw, err := Graph("kron", Quick, true)
	if err != nil {
		t.Fatal(err)
	}
	if gw == g1 {
		t.Error("weighted variant shared with unweighted")
	}
	if !gw.Weighted() {
		t.Error("weighted graph not weighted")
	}
}

func TestGenerateTraceAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark matrix in -short mode")
	}
	for _, b := range AllBenchmarks() {
		tr, err := GenerateTrace(b, Quick, 0)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if tr.NumCores() != 4 {
			t.Errorf("%s: cores = %d", b, tr.NumCores())
		}
		if tr.Events() == 0 {
			t.Errorf("%s: empty trace", b)
		}
		if tr.Events() > Quick.MaxEvents()+8 {
			t.Errorf("%s: %d events exceeds budget", b, tr.Events())
		}
		// Every trace must touch structure and property data.
		var counts [mem.NumDataTypes]int
		for _, stream := range tr.PerCore {
			for _, ev := range stream {
				if ev.Kind == trace.KindLoad {
					counts[ev.DType]++
				}
			}
		}
		if counts[mem.Structure] == 0 || counts[mem.Property] == 0 {
			t.Errorf("%s: load mix %v missing a data type", b, counts)
		}
	}
}

func TestBenchmarkMatrix(t *testing.T) {
	all := AllBenchmarks()
	if len(all) != 25 {
		t.Fatalf("benchmarks = %d, want 25", len(all))
	}
	if all[0].String() != "BC-kron" {
		t.Errorf("first benchmark = %s", all[0])
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.String()] {
			t.Errorf("duplicate benchmark %s", b)
		}
		seen[b.String()] = true
	}
}

func TestScales(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
	if Quick.MaxEvents() >= Full.MaxEvents() {
		t.Error("quick budget should be below full")
	}
}

func TestGenerateTraceUnknownDataset(t *testing.T) {
	_, err := GenerateTrace(Benchmark{Algo: PR, Dataset: "nope"}, Quick, 0)
	if err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range []string{"PR", "pr", "Pr"} {
		a, err := ParseAlgorithm(name)
		if err != nil || a != PR {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("bogus algorithm resolved")
	}
}

func TestParseBenchmark(t *testing.T) {
	b, err := ParseBenchmark("PR-orkut")
	if err != nil {
		t.Fatal(err)
	}
	if b.Algo != PR || b.Dataset != "orkut" {
		t.Errorf("ParseBenchmark = %+v", b)
	}
	if b.String() != "PR-orkut" {
		t.Errorf("round trip = %s", b)
	}
	for _, bad := range []string{"PR", "PR-nope", "XX-orkut", ""} {
		if _, err := ParseBenchmark(bad); err == nil {
			t.Errorf("ParseBenchmark(%q) resolved", bad)
		}
	}
}

// TestConcurrentGraphAccess hammers the graph cache from many goroutines
// (the parallel experiment scheduler's access pattern); under -race this
// checks the per-key singleflight. Duplicate requests must share one
// build and return the same object.
func TestConcurrentGraphAccess(t *testing.T) {
	datasets := []string{"kron", "road", "urand"}
	var wg sync.WaitGroup
	got := make([]*graph.CSR, 12)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := Graph(datasets[i%len(datasets)], Quick, false)
			if err != nil {
				t.Errorf("Graph: %v", err)
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	byDataset := make(map[string]*graph.CSR)
	for i, g := range got {
		if g == nil {
			continue
		}
		name := datasets[i%len(datasets)]
		if prev, ok := byDataset[name]; ok && prev != g {
			t.Errorf("duplicate requests for %s returned distinct graphs", name)
		}
		byDataset[name] = g
	}
}

// TestConcurrentGenerateTrace generates traces for distinct benchmarks in
// parallel — the scheduler does this constantly, so it must be race-free.
func TestConcurrentGenerateTrace(t *testing.T) {
	benches := []Benchmark{
		{Algo: PR, Dataset: "kron"},
		{Algo: BFS, Dataset: "road"},
		{Algo: CC, Dataset: "kron"},
		{Algo: PR, Dataset: "kron"}, // duplicate: shares the cached graph
	}
	var wg sync.WaitGroup
	for _, b := range benches {
		wg.Add(1)
		go func(b Benchmark) {
			defer wg.Done()
			tr, err := GenerateTrace(b, Quick, 0)
			if err != nil {
				t.Errorf("%s: %v", b, err)
				return
			}
			if tr.Events() == 0 {
				t.Errorf("%s: empty trace", b)
			}
		}(b)
	}
	wg.Wait()
}
