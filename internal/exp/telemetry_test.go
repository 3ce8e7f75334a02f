package exp

import (
	"os"
	"path/filepath"
	"testing"

	"droplet/internal/core"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/workload"
)

// runFig11Telemetry runs the quick fig11 matrix (restricted to two
// benchmarks for test cost) with telemetry streaming into dir at the
// given parallelism, and returns the emitted file names.
func runFig11Telemetry(t *testing.T, dir string, jobs int) []string {
	t.Helper()
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.BFS, Dataset: "road"},
	}
	s.Jobs = jobs
	s.TelemetryDir = dir
	s.Base.EpochCycles = 20000
	if _, err := RunFig11(s); err != nil {
		t.Fatalf("RunFig11(jobs=%d): %v", jobs, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestTelemetryJobsDeterminism pins the ISSUE acceptance criteria: the
// epoch JSONL stream of every quick fig11 run is byte-identical at
// jobs=1 and jobs=4, and every epoch of every file passes the
// cycle-stack conservation validator.
func TestTelemetryJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("prefetcher matrix in -short mode")
	}
	dir1 := t.TempDir()
	dir4 := t.TempDir()
	names1 := runFig11Telemetry(t, dir1, 1)
	names4 := runFig11Telemetry(t, dir4, 4)

	if len(names1) == 0 {
		t.Fatal("no telemetry files emitted")
	}
	if len(names1) != len(names4) {
		t.Fatalf("jobs=1 emitted %d files, jobs=4 emitted %d", len(names1), len(names4))
	}
	for i, name := range names1 {
		if names4[i] != name {
			t.Fatalf("file sets diverge: %v vs %v", names1, names4)
		}
		b1, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b4, err := os.ReadFile(filepath.Join(dir4, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b4) {
			t.Errorf("%s: JSONL stream differs between jobs=1 and jobs=4", name)
		}

		f, err := os.Open(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		meta, n, err := telemetry.ValidateJSONL(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if n == 0 {
			t.Errorf("%s: no epoch records", name)
		}
		if meta.EpochCycles != 20000 {
			t.Errorf("%s: meta epoch_cycles = %d", name, meta.EpochCycles)
		}
	}
}

// TestTelemetryFileNaming pins the telemetry file stem to the canonical
// simulation-request hash: the scheduler key, the telemetry file name,
// and the HTTP service's result key are one identity.
func TestTelemetryFileNaming(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Base.EpochCycles = 20000
	r := Request{
		Bench: workload.Benchmark{Algo: workload.PR, Dataset: "kron"},
		Kind:  core.DROPLET,
	}
	want, err := simreq.Request{
		Benchmark:   "PR-kron",
		Prefetcher:  "droplet",
		EpochCycles: 20000,
	}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.keyOf(r); got != want {
		t.Errorf("scheduler key = %q, want canonical request hash %q", got, want)
	}
}
