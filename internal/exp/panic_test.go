package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

var bfsRoad = workload.Benchmark{Algo: workload.BFS, Dataset: "road"}

// TestFlightPanicIsAnError checks that a flight whose function panics
// fails with an error naming its key and the panic value, is not
// cached, and releases the trace it pinned.
func TestFlightPanicIsAnError(t *testing.T) {
	s := NewSuite(workload.Quick)
	calls := 0
	fn := func(context.Context) (any, error) {
		calls++
		_, e, err := s.acquireTrace(bfsRoad, s.Scale, 0)
		if err != nil {
			return nil, err
		}
		defer s.releaseTrace(e)
		if calls == 1 {
			panic("boom")
		}
		return calls, nil
	}
	_, err := s.doKey(context.Background(), "panicky", fn)
	if err == nil || !strings.Contains(err.Error(), "panicky") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking flight returned %v, want an error naming the key and the panic", err)
	}
	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after a panicking flight", n)
	}
	val, err := s.doKey(context.Background(), "panicky", fn)
	if err != nil || val != 2 {
		t.Fatalf("retry returned (%v, %v), want a second execution's result 2", val, err)
	}
	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after the retry", n)
	}
}

// TestSimulationPanicIsAnError drives a model invariant's panic through
// the service path: a trace whose DepSpan understates its links trips
// the core's completion-ring guard, and SimResult and SimTelemetry
// report it as an error naming the request hash instead of crashing.
func TestSimulationPanicIsAnError(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.generateTrace = func(b workload.Benchmark, sc workload.Scale, cores int) (*trace.Trace, error) {
		tr, err := workload.GenerateTrace(b, sc, cores)
		if err != nil {
			return nil, err
		}
		short := *tr
		short.DepSpan = 0 // BFS links reach two events back
		return &short, nil
	}
	q := simreq.Request{Benchmark: bfsRoad.String()}
	hash, err := q.Hash()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SimResult(context.Background(), q)
	if err == nil || !strings.Contains(err.Error(), hash) || !strings.Contains(err.Error(), "completion ring") {
		t.Fatalf("SimResult = %v, want an error naming %s and the ring guard", err, hash)
	}
	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after a panicking simulation", n)
	}
	_, err = s.SimTelemetry(context.Background(), q, &telemetry.MemorySink{})
	if err == nil || !strings.Contains(err.Error(), hash) || !strings.Contains(err.Error(), "completion ring") {
		t.Fatalf("SimTelemetry = %v, want an error naming %s and the ring guard", err, hash)
	}
	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after a panicking telemetry replay", n)
	}
}

// TestPanickingTraceGenerationSettles checks that a trace generator
// that panics wakes the acquire waiting on it with an error and leaves
// no entry behind, so the next acquire of the benchmark generates
// afresh instead of blocking forever.
func TestPanickingTraceGenerationSettles(t *testing.T) {
	s := NewSuite(workload.Quick)
	started, release := make(chan struct{}), make(chan struct{})
	calls := 0
	s.generateTrace = func(b workload.Benchmark, sc workload.Scale, cores int) (*trace.Trace, error) {
		calls++
		if calls == 1 {
			close(started)
			<-release
			panic("generator boom")
		}
		return workload.GenerateTrace(b, sc, cores)
	}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.acquireTrace(bfsRoad, s.Scale, 0)
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, e, err := s.acquireTrace(bfsRoad, s.Scale, 0)
		if err == nil {
			s.releaseTrace(e)
		}
		waiter <- err
	}()
	// The waiter pins the entry before it blocks on the generation; no
	// event marks that, so poll for its pin.
	for s.PinnedTraceRefs() != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r != "generator boom" {
		t.Errorf("generating acquire recovered %v, want the generator's panic", r)
	}
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "generator boom") {
			t.Errorf("waiter got %v, want an error carrying the panic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter still blocked after the generator panicked")
	}

	next := make(chan error, 1)
	go func() {
		_, e, err := s.acquireTrace(bfsRoad, s.Scale, 0)
		if err == nil {
			s.releaseTrace(e)
		}
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Errorf("next acquire: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("next acquire blocked on the panicked generation's entry")
	}
	if calls != 2 {
		t.Errorf("generator ran %d times, want a fresh generation after the panic", calls)
	}
	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned", n)
	}
}
