package sim

import (
	"encoding/json"
	"testing"

	"droplet/internal/core"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/trace"
)

// testMachine returns a machine in the paper's regime for the scale-14
// test graph: property (64KB) ≈ 2× LLC, structure ≫ LLC.
func testMachine(pf core.PrefetcherKind) Config {
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 32 << 10
	cfg.Prefetcher = pf
	return cfg
}

var testTrace *trace.Trace // shared across tests; simulation never mutates it

func prTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if testTrace == nil {
		g, err := graph.Kron(14, 16, graph.GenOptions{Seed: 11, Symmetrize: true})
		if err != nil {
			t.Fatalf("Kron: %v", err)
		}
		testTrace, _ = trace.PageRank(g, g.Transpose(), trace.Options{Cores: 4, PRIters: 2, MaxEvents: 1_500_000})
	}
	return testTrace
}

func mustRun(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	r, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestRunBaselineSanity(t *testing.T) {
	tr := prTrace(t)
	r := mustRun(t, tr, testMachine(core.NoPrefetch))
	if r.Cycles <= 0 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
	if r.Instructions <= 0 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if ipc := r.IPC(); ipc <= 0 || ipc > float64(4*r.Config.CPU.DispatchWidth) {
		t.Errorf("IPC = %v out of range", ipc)
	}
	base, byLevel := r.CycleStack()
	sum := base
	for _, f := range byLevel {
		sum += f
	}
	if sum < 0.95 || sum > 1.05 {
		t.Errorf("cycle stack sums to %v", sum)
	}
	// A graph workload whose footprint dwarfs the hierarchy must be
	// memory-bound (Fig. 1): DRAM is the largest stall slice.
	if byLevel[memsys.LevelDRAM] < 0.2 {
		t.Errorf("DRAM stall fraction = %v, expected memory-bound behaviour", byLevel[memsys.LevelDRAM])
	}
	if r.LLCMPKI() <= 0 {
		t.Error("no LLC misses on an over-sized workload")
	}
}

func TestRunCoreCountMismatch(t *testing.T) {
	tr := prTrace(t)
	cfg := testMachine(core.NoPrefetch)
	cfg.Cores = 2
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("expected core-count mismatch error")
	}
}

func TestPrefetchersImproveOverBaseline(t *testing.T) {
	tr := prTrace(t)
	base := mustRun(t, tr, testMachine(core.NoPrefetch))
	stream := mustRun(t, tr, testMachine(core.Stream))
	droplet := mustRun(t, tr, testMachine(core.DROPLET))

	if s := stream.Speedup(base); s < 1.0 {
		t.Errorf("stream speedup = %.3f, want >= 1", s)
	}
	if s := droplet.Speedup(base); s <= 1.05 {
		t.Errorf("droplet speedup = %.3f, want > 1.05", s)
	}
	// Fig. 11 ordering on PR: droplet beats the conventional streamer.
	if droplet.Cycles >= stream.Cycles {
		t.Errorf("droplet (%d cycles) not faster than stream (%d)", droplet.Cycles, stream.Cycles)
	}
	// Fig. 13: DROPLET cuts both structure and property demand misses.
	if droplet.DemandMPKIByType()[mem.Property] >= base.DemandMPKIByType()[mem.Property] {
		t.Error("droplet did not reduce property demand MPKI vs baseline")
	}
	if droplet.DemandMPKIByType()[mem.Structure] >= base.DemandMPKIByType()[mem.Structure] {
		t.Error("droplet did not reduce structure demand MPKI vs baseline")
	}
	if droplet.Attachment.MPP == nil || droplet.Attachment.MPP.Stats().Triggers == 0 {
		t.Error("droplet MPP never triggered")
	}
}

func TestDropletRaisesL2HitRate(t *testing.T) {
	tr := prTrace(t)
	base := mustRun(t, tr, testMachine(core.NoPrefetch))
	droplet := mustRun(t, tr, testMachine(core.DROPLET))
	// Fig. 12: DROPLET converts the under-utilized L2 into a useful
	// staging buffer.
	if droplet.L2HitRate() <= base.L2HitRate()+0.1 {
		t.Errorf("droplet L2 hit rate %.3f not well above baseline %.3f",
			droplet.L2HitRate(), base.L2HitRate())
	}
}

func TestAllConfigsRun(t *testing.T) {
	tr := prTrace(t)
	base := mustRun(t, tr, testMachine(core.NoPrefetch))
	for _, k := range core.AllKinds {
		r := mustRun(t, tr, testMachine(k))
		if r.Cycles <= 0 {
			t.Errorf("%v: cycles = %d", k, r.Cycles)
		}
		if k != core.NoPrefetch && r.BPKI() < base.BPKI()*0.5 {
			t.Errorf("%v: implausibly low BPKI", k)
		}
	}
}

func TestPrefetchBandwidthOverheadBounded(t *testing.T) {
	tr := prTrace(t)
	base := mustRun(t, tr, testMachine(core.NoPrefetch))
	droplet := mustRun(t, tr, testMachine(core.DROPLET))
	// Fig. 15: DROPLET's extra bandwidth is a modest overhead because its
	// prefetches are accurate.
	if droplet.BPKI() > 1.5*base.BPKI() {
		t.Errorf("droplet BPKI %.2f vs base %.2f — too much waste", droplet.BPKI(), base.BPKI())
	}
}

func TestPrefetchAccuracyShape(t *testing.T) {
	tr := prTrace(t)
	droplet := mustRun(t, tr, testMachine(core.DROPLET))
	sacc, ok := droplet.PrefetchAccuracy(mem.Structure)
	if !ok {
		t.Fatal("no structure prefetches issued")
	}
	pacc, ok := droplet.PrefetchAccuracy(mem.Property)
	if !ok {
		t.Fatal("no property prefetches issued")
	}
	// Fig. 14: PR processes vertices in order, so DROPLET's structure
	// accuracy is near-perfect and property accuracy high.
	if sacc < 0.8 {
		t.Errorf("structure accuracy = %.2f, want high for PR", sacc)
	}
	if pacc < 0.5 {
		t.Errorf("property accuracy = %.2f, want high for PR", pacc)
	}

	// The conventional streamer's property prefetches are stream guesses;
	// they can be decent on small sequential-ish graphs (the paper sees
	// 70% on BFS), but must not be dramatically better than the MPP's
	// explicitly computed addresses.
	stream := mustRun(t, tr, testMachine(core.Stream))
	if spacc, ok := stream.PrefetchAccuracy(mem.Property); ok && spacc > pacc+0.2 {
		t.Errorf("conventional stream property accuracy %.2f far above droplet %.2f", spacc, pacc)
	}
}

func TestServicedFractionsSumToOne(t *testing.T) {
	tr := prTrace(t)
	r := mustRun(t, tr, testMachine(core.NoPrefetch))
	f := r.ServicedFractions()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		var sum float64
		for l := 0; l < memsys.NumLevels; l++ {
			sum += f[dt][l]
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("type %v fractions sum to %v", mem.DataType(dt), sum)
		}
	}
	// Observation #6: structure is serviced by L1 and DRAM, barely by L2.
	if f[mem.Structure][memsys.LevelL2] > 0.15 {
		t.Errorf("structure L2 service fraction = %.2f, want small", f[mem.Structure][memsys.LevelL2])
	}
	if f[mem.Structure][memsys.LevelDRAM] < 0.01 {
		t.Errorf("structure DRAM fraction = %.3f, want significant", f[mem.Structure][memsys.LevelDRAM])
	}
}

func TestNoL2MatchesFig4b(t *testing.T) {
	tr := prTrace(t)
	with := mustRun(t, tr, testMachine(core.NoPrefetch))
	cfg := testMachine(core.NoPrefetch)
	cfg.NoL2 = true
	without := mustRun(t, tr, cfg)
	// Observation #4: removing the private L2 costs almost nothing.
	ratio := float64(without.Cycles) / float64(with.Cycles)
	if ratio > 1.1 {
		t.Errorf("no-L2 slowdown ratio = %.3f, paper says negligible", ratio)
	}
}

func TestLargerLLCHelpsPropertyMost(t *testing.T) {
	tr := prTrace(t)
	small := mustRun(t, tr, testMachine(core.NoPrefetch))
	big := testMachine(core.NoPrefetch)
	big.LLC.SizeBytes *= 4
	bigR := mustRun(t, tr, big)
	// Fig. 4a: a 4x LLC reduces MPKI.
	if bigR.LLCMPKI() >= small.LLCMPKI() {
		t.Errorf("4x LLC did not reduce MPKI: %.2f vs %.2f", bigR.LLCMPKI(), small.LLCMPKI())
	}
	// Fig. 4c: property benefits most; structure stays irresponsive.
	dSmall, dBig := small.OffChipFractionByType(), bigR.OffChipFractionByType()
	propGain := dSmall[mem.Property] - dBig[mem.Property]
	structGain := dSmall[mem.Structure] - dBig[mem.Structure]
	if propGain <= structGain {
		t.Errorf("property off-chip gain %.3f not above structure gain %.3f", propGain, structGain)
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range core.AllKinds {
		got, err := core.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := core.ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

func TestSummarize(t *testing.T) {
	tr := prTrace(t)
	r := mustRun(t, tr, testMachine(core.DROPLET))
	s := r.Summarize()
	if s.Prefetcher != "droplet" || s.Cycles != r.Cycles || s.IPC != r.IPC() {
		t.Errorf("summary = %+v", s)
	}
	stack := s.CycleStack.Base + s.CycleStack.L1 + s.CycleStack.L2 + s.CycleStack.L3 + s.CycleStack.DRAM
	if stack < 0.95 || stack > 1.05 {
		t.Errorf("summary cycle stack sums to %v", stack)
	}
	if s.MPPTriggers == 0 {
		t.Error("MPP stats missing from summary")
	}
	if _, ok := s.PrefetchAccuracy["structure"]; !ok {
		t.Error("structure accuracy missing")
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("summary not JSON-serializable: %v", err)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	tr := prTrace(t)
	cfg := testMachine(core.DROPLET)
	r1 := mustRun(t, tr, cfg)
	r2 := mustRun(t, tr, cfg)
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/instructions",
			r1.Cycles, r1.Instructions, r2.Cycles, r2.Instructions)
	}
	if r1.BPKI() != r2.BPKI() || r1.L2HitRate() != r2.L2HitRate() {
		t.Error("non-deterministic derived stats")
	}
}
