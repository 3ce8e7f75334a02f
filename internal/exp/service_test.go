package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"droplet/internal/core"
	"droplet/internal/simreq"
	"droplet/internal/workload"
)

// TestSimResultSharesTableCache proves the canonical entry point and the
// experiment-table entry point key the same cache: after a table-style
// Result call, the equivalent canonical request is a pure cache hit
// (same *sim.Result pointer, no second execution).
func TestSimResultSharesTableCache(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Jobs = 1
	var counter runCounter
	s.Progress = counter.hook()

	b := workload.Benchmark{Algo: workload.PR, Dataset: "kron"}
	r1, err := s.Result(b, core.NoPrefetch, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SimResult(context.Background(), simreq.Request{Benchmark: "pr-kron"})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("canonical request did not hit the table-populated cache")
	}
	if n := len(counter.runs); n != 1 {
		t.Errorf("executed %d keys, want 1 (second call must be a cache hit): %v", n, counter.runs)
	}
}

// TestSimResultRejectsVariant pins that wire requests cannot name
// table-only machine variants.
func TestSimResultRejectsVariant(t *testing.T) {
	s := NewSuite(workload.Quick)
	_, err := s.SimResult(context.Background(), simreq.Request{Benchmark: "PR-kron", Variant: "no L2"})
	if err == nil || !strings.Contains(err.Error(), "variant") {
		t.Errorf("variant request not rejected: %v", err)
	}
}

// TestSimResultCancellation checks the refcounted abandon path: a
// pre-cancelled context returns ctx.Err() immediately, a cancelled
// waiter does not disturb a surviving waiter's result, and no trace
// references leak in either case.
func TestSimResultCancellation(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Jobs = 2
	q := simreq.Request{Benchmark: "BFS-road"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SimResult(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled request returned %v, want context.Canceled", err)
	}

	// Two waiters join one flight; one abandons, the other must still
	// get the result (the flight keeps running while a waiter remains).
	ctx2, cancel2 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var survErr error
	var survived bool
	go func() {
		defer wg.Done()
		_, survErr = s.SimResult(context.Background(), q)
		survived = survErr == nil
	}()
	_, _ = s.SimResult(ctx2, q) // may win or lose the race to start the flight
	cancel2()
	wg.Wait()
	if !survived {
		t.Fatalf("surviving waiter failed: %v", survErr)
	}

	if n := s.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references still pinned after cancellations", n)
	}
}
