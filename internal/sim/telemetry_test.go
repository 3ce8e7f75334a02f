package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"droplet/internal/core"
	"droplet/internal/graph"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
)

func quickMachine() Config {
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 32 << 10
	return cfg
}

func quickTrace(t *testing.T) *trace.Trace {
	t.Helper()
	g, err := graph.Kron(10, 8, graph.GenOptions{Seed: 7, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.PageRank(g, g.Transpose(), trace.Options{Cores: 4, PRIters: 2})
	return tr
}

// TestSimulateObserverInvariance pins the api_redesign acceptance
// criterion: the end-of-run Result is identical with telemetry on and
// off (the observer never perturbs the step sequence), and every epoch
// the collector emits satisfies the cycle-stack conservation invariant.
func TestSimulateObserverInvariance(t *testing.T) {
	tr := quickTrace(t)
	for _, kind := range []core.PrefetcherKind{core.NoPrefetch, core.DROPLET} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := quickMachine()
			cfg.Prefetcher = kind

			plain, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}

			sink := &telemetry.MemorySink{}
			col := telemetry.NewCollector(sink, telemetry.RunMeta{})
			observed, err := Simulate(context.Background(), tr, cfg, Options{Observer: col, EpochCycles: 5000})
			if err != nil {
				t.Fatal(err)
			}

			if observed.Cycles != plain.Cycles || observed.Instructions != plain.Instructions {
				t.Errorf("aggregates diverge: observed (%d cycles, %d instr), plain (%d, %d)",
					observed.Cycles, observed.Instructions, plain.Cycles, plain.Instructions)
			}
			if !reflect.DeepEqual(observed.CoreStats, plain.CoreStats) {
				t.Errorf("per-core stats diverge with observer attached")
			}
			if !reflect.DeepEqual(*observed.Hier.Stats(), *plain.Hier.Stats()) {
				t.Errorf("hierarchy stats diverge with observer attached")
			}
			if !reflect.DeepEqual(*observed.Hier.MC().Stats(), *plain.Hier.MC().Stats()) {
				t.Errorf("DRAM stats diverge with observer attached")
			}

			if len(sink.Records) < 2 {
				t.Fatalf("expected multiple epochs at granularity 5000 over %d cycles, got %d",
					observed.Cycles, len(sink.Records))
			}
			for i := range sink.Records {
				if err := telemetry.ValidateRecord(&sink.Records[i], int64(i), cfg.Cores); err != nil {
					t.Fatal(err)
				}
			}
			last := sink.Records[len(sink.Records)-1]
			if !last.Final {
				t.Errorf("last record not marked final")
			}
			// Epoch deltas must reconstruct the end-of-run totals exactly.
			var instr int64
			for _, rec := range sink.Records {
				for _, c := range rec.Cores {
					instr += c.Instructions
				}
			}
			if instr != observed.Instructions {
				t.Errorf("summed epoch instructions %d != result %d", instr, observed.Instructions)
			}
			for c := 0; c < cfg.Cores; c++ {
				if end := last.Cores[c].EndCycle; end != observed.CoreStats[c].Cycles {
					t.Errorf("core %d final window ends at %d, stats say %d cycles", c, end, observed.CoreStats[c].Cycles)
				}
			}
		})
	}
}

// TestSimulateJSONLRoundTrip runs the collector through the JSONL sink
// and the consumer-side validator end to end.
func TestSimulateJSONLRoundTrip(t *testing.T) {
	tr := quickTrace(t)
	cfg := quickMachine()
	cfg.Prefetcher = core.DROPLET

	var buf bytes.Buffer
	col := telemetry.NewCollector(telemetry.NewJSONLSink(&buf), telemetry.RunMeta{Benchmark: "kron10", Kernel: "pr"})
	if _, err := Simulate(context.Background(), tr, cfg, Options{Observer: col, EpochCycles: 5000}); err != nil {
		t.Fatal(err)
	}
	meta, n, err := telemetry.ValidateJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Cores, prefetcher and epoch granularity come from the driven machine.
	if meta.Benchmark != "kron10" || meta.Kernel != "pr" || meta.Prefetcher != "droplet" || meta.Cores != cfg.Cores || meta.EpochCycles != 5000 {
		t.Errorf("meta round-trip mismatch: %+v", meta)
	}
	if n < 2 {
		t.Errorf("expected multiple epochs, got %d", n)
	}
}

// TestSimulateCancellation proves Simulate aborts promptly on a
// cancelled context.
func TestSimulateCancellation(t *testing.T) {
	tr := quickTrace(t)
	cfg := quickMachine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, tr, cfg, Options{}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSimulateProgress checks the progress callback fires at every epoch
// boundary with monotonically increasing cycles.
func TestSimulateProgress(t *testing.T) {
	tr := quickTrace(t)
	cfg := quickMachine()
	var cycles []int64
	res, err := Simulate(context.Background(), tr, cfg, Options{
		EpochCycles: 5000,
		Progress:    func(c int64) { cycles = append(cycles, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("progress cycles not increasing: %v", cycles)
		}
	}
	if last := cycles[len(cycles)-1]; last > res.Cycles {
		t.Errorf("progress cycle %d beyond final wall clock %d", last, res.Cycles)
	}
}
