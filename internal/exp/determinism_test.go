package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"droplet/internal/workload"
)

// TestFigureEmissionDeterministic rebuilds figure tables twice and
// requires byte-identical output. The figures aggregate per-algorithm
// maps; Go randomizes map iteration per range statement, so two rebuilds
// in one process diverge the moment an unsorted iteration order reaches
// f.Rows/f.Geomean — exactly the bug class the detmap analyzer and the
// sortedKeys rewrites in experiments.go guard against. Simulation
// results are cached in the suite, so the second build exercises only
// the table construction.
func TestFigureEmissionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("prefetcher matrix in -short mode")
	}
	s := testSuite()
	s.Benchmarks = []workload.Benchmark{{Algo: workload.PR, Dataset: "kron"}}

	build := func() string {
		f11, err := RunFig11(s)
		if err != nil {
			t.Fatalf("RunFig11: %v", err)
		}
		f15, err := RunFig15(s)
		if err != nil {
			t.Fatalf("RunFig15: %v", err)
		}
		return f11.Format() + f15.Format()
	}
	first := build()
	for i := 0; i < 3; i++ {
		if again := build(); again != first {
			t.Fatalf("figure emission differs between builds:\n--- first ---\n%s\n--- rebuild %d ---\n%s", first, i+1, again)
		}
	}
}

// TestTableDigests pins every simulation and analysis table byte for
// byte, the invariant that tables move only when a change says why. The
// digest is the SHA-256 of each table followed by a newline — what
// `dropletsim -matrix <ids> -benchmarks PR-kron,BFS-road,CC-kron -scale
// quick` prints — on linux/amd64, since other architectures may fuse
// floating-point operations differently.
func TestTableDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("seventeen tables in -short mode")
	}
	if raceEnabled {
		// Under -race the tables take minutes on two CPUs, enough to push
		// this package past the default test timeout. The bytes do not
		// depend on the build mode; TestParallelTablesMatchSerial runs
		// the tables' concurrency under -race.
		t.Skip("seventeen tables under the race detector")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("table digest pinned on linux/amd64")
	}
	const want = "2f38fbd5a1a69161ff13f85505c1b1641e91a2c87814701a3838649847639103"
	ids := "fig1,fig3,fig4a,fig4b,fig5,fig6,fig7,fig11,fig12,fig13,fig14,fig15,repl,pfx,ablation,adaptive,multichannel"
	s := testSuite()
	h := sha256.New()
	for _, id := range strings.Split(ids, ",") {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write([]byte(out + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("tables digest %s, want %s", got, want)
	}
}
