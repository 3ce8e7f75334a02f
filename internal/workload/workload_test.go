package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
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

// traceDigest is the SHA-256 of a whole trace: per core, the stream's
// length and then every event's fields, little-endian, followed by
// Instructions, Truncated and DepSpan.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 16<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, stream := range tr.PerCore {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stream)))
		for _, ev := range stream {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Addr))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Dep))
			buf = binary.LittleEndian.AppendUint16(buf, ev.Comp)
			buf = append(buf, byte(ev.Kind), byte(ev.DType))
			if len(buf) > cap(buf)-32 {
				flush()
			}
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.Instructions))
	if tr.Truncated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.DepSpan))
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigests pins every registry benchmark's quick-scale trace, and
// DOBFS's (which has no stream twin to compare against) on the quick kron
// and road graphs, so any change to how a trace is materialized that
// moves one event, the instruction count, the truncation flag or the
// dependency span fails here.
func TestTraceDigests(t *testing.T) {
	want := map[string]string{
		"BC-kron":          "c17fbd72f2a98f8bd9677fe748fae23594d3e70e4ca296acaf9538e640c3f75a",
		"BC-urand":         "666d2a375e516c37e22f66897a4d2da72675be15d8f329e5dfb23e8f0ea13b59",
		"BC-orkut":         "81fc813149bb813e9a9c1c2cd7700a921745a23d640a909455ad251d1e4c4c8e",
		"BC-livejournal":   "072c5d9c9631cdc2a533d996507705102d854b179e9896ff4d0d3848eb0d3a49",
		"BC-road":          "e5465ee32ea93833691248ba24868b576945c38a613b83896d2fa53ffed8c7ca",
		"BFS-kron":         "ff5394163edceecbda6d6167872b6506f12908d80e71f60b6c0d361bf02d273b",
		"BFS-urand":        "a801227f6261df66f5947b32e90e02c4feecbe3310b1fc0d663a236cd825b742",
		"BFS-orkut":        "9aac8b391ac7ea3f7b7fab00af5ca190d19151004bdb9978cf649ab2c5a4b326",
		"BFS-livejournal":  "67944d3bf1d2cac4f7128523b0be1d73b7ea564e41966ad5b4e0ddfe29348a12",
		"BFS-road":         "74f46d5956ac67d7775f704630bcba1e9170169618a9c4984de52ee893245886",
		"PR-kron":          "97bf0f9f8a89f69ac525b3e290692f8f2589ca9193f518976c16a89096447bae",
		"PR-urand":         "f5daafca482cbe025a87dfc8174dfb29f3bb071f011122a29eef86e8fef53ce9",
		"PR-orkut":         "c8df02443c8beca1dbb8d02f313d8e8b3a208bb8df6cc7ecc1d07a040efe2c12",
		"PR-livejournal":   "df4652c0c893d6483cf64f5979bc417abc6fecd2651e7903796a8a2b894368d5",
		"PR-road":          "cd6a39d5f102576ce70962c268909a49f15baeb48d2ea4e0b6a93ed6f3004903",
		"SSSP-kron":        "f64a4388270ceb98ddb462c0329fb4091451de2029da60eb976f46de6f29e029",
		"SSSP-urand":       "2edab78007fc5e4af19ec0892f2e9ca2a9b3e303ed0c0a51a5b1bfe48cea09c3",
		"SSSP-orkut":       "e06f9a57e46a12c3dd9657b5b9d08a59ac40dcd77e481156f2450626ef57fc5c",
		"SSSP-livejournal": "5d8217224a5eaa640f1b94c6a06a7d509b2daf3860967484373729621a894a3b",
		"SSSP-road":        "c529a1c7486c9189cebbd48303fad86e521899e543564d62e8072fcc842d6b36",
		"CC-kron":          "ce3701e89ec996dfdc29f330e9b917b29753c519ebe7dbe552e69d31954a2ea0",
		"CC-urand":         "3eaaeee25f4905729f27d448a36f95494eba6bb36e62eeac711ff69563d3ebe3",
		"CC-orkut":         "bc232ca5b88ae3f1d518a53ce655c915a21fb6ee7f89d1c0450a17183f87a797",
		"CC-livejournal":   "c1a70d37eb7d8e9558fc1f55372c343b1ae4e923e9ab36c5baf589291866f57e",
		"CC-road":          "89783d82794e1325f04a7e4e850e320a9133debee52a037a89bfcf0921945b9e",
		"DOBFS-kron":       "7e7da574764e4b0e2ffa8b909dbcac081063ea0bff4b3c57c828dd3fdfc3e8e0",
		"DOBFS-road":       "e75ab593c77480427c1d305f42de44b230360797943920661fec55f920adbde7",
	}
	check := func(name string, tr *trace.Trace) {
		t.Helper()
		if got := traceDigest(tr); got != want[name] {
			t.Errorf("%s: trace digest %s, want %s", name, got, want[name])
		}
	}
	for _, b := range AllBenchmarks() {
		tr, err := GenerateTrace(b, Quick, 0)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		check(b.String(), tr)
	}
	for _, name := range []string{"kron", "road"} {
		g, err := Graph(name, Quick, false)
		if err != nil {
			t.Fatal(err)
		}
		opt := trace.Options{Cores: 4, MaxEvents: Quick.MaxEvents()}
		tr, _ := trace.DOBFS(g, g.Transpose(), graph.LargestComponentSource(g), 0, 0, opt)
		check("DOBFS-"+name, tr)
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

// TestGraphBuildPanicIsAnError checks that a dataset whose Build panics
// makes Graph return an error naming the panic, on the first request and
// on a later one, rather than ending the process or caching a nil graph.
func TestGraphBuildPanicIsAnError(t *testing.T) {
	const name = "panicky"
	saved := Datasets
	Datasets = append(slices.Clip(Datasets), Dataset{Name: name, Build: func(Scale, bool) (*graph.CSR, error) {
		panic("generator bug")
	}})
	t.Cleanup(func() {
		Datasets = saved
		graphCache.Lock()
		delete(graphCache.graphs, fmt.Sprintf("%s/%v/%v", name, Quick, false))
		graphCache.Unlock()
	})
	for call := 1; call <= 2; call++ {
		g, err := Graph(name, Quick, false)
		if g != nil || err == nil || !strings.Contains(err.Error(), "panic: generator bug") {
			t.Fatalf("call %d: Graph = %v, %v; want an error naming the panic", call, g, err)
		}
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
