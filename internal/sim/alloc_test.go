package sim

import (
	"context"
	"runtime/debug"
	"testing"

	"droplet/internal/core"
)

// TestSimulateNilObserverZeroAlloc proves the nil-observer Simulate path
// adds zero allocations over the bare machine driven by the reference
// loop: with a zero Options and a non-cancellable context, Simulate must
// take the plain drive (no closure, no observer or sampling
// bookkeeping). This pins the zero-alloc hot-path guarantee — the
// telemetry and sampling seams must cost nothing when they are off.
func TestSimulateNilObserverZeroAlloc(t *testing.T) {
	tr := quickTrace(t)
	cfg := quickMachine()
	cfg.Prefetcher = core.DROPLET
	// A collection that lands in one measured run can add the runtime's
	// own allocations to that side alone, so measure with the collector
	// off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	baseline := testing.AllocsPerRun(3, func() {
		if _, err := runReference(tr, cfg); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(3, func() {
		if _, err := Simulate(context.Background(), tr, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if extra := full - baseline; extra != 0 {
		t.Errorf("nil-observer Simulate allocates %v times beyond the bare machine (baseline %v, full %v)",
			extra, baseline, full)
	}
}
