package exp

import (
	"context"
	"fmt"

	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
)

// SimResult executes (or returns the cached result of) the canonical
// request q on the suite's scheduler. It shares the singleflight result
// cache and the bounded trace cache with the experiment tables: a table
// cell and an HTTP request for the same canonical hash collapse onto
// one simulation. Named machine variants are rejected — they exist only
// as in-process mutation functions inside experiment tables, so a wire
// request cannot reproduce them.
//
// Cancelling ctx abandons the wait; the underlying simulation is
// cancelled once no other caller is waiting on the same hash, and the
// hash becomes retryable.
func (s *Suite) SimResult(ctx context.Context, q simreq.Request) (*sim.Result, error) {
	rv, err := q.Resolve()
	if err != nil {
		return nil, err
	}
	if rv.Variant != "" {
		return nil, fmt.Errorf("exp: variant %q is not servable: named machine variants exist only inside experiment tables", rv.Variant)
	}
	q = rv.Request()
	hash, err := q.Hash()
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%s/%v/", rv.Benchmark, rv.Prefetcher)
	val, err := s.doKey(ctx, hash, func(fctx context.Context) (any, error) {
		return s.runSim(fctx, rv, nil, hash, label)
	})
	if err != nil {
		return nil, err
	}
	return val.(*sim.Result), nil
}

// SimTelemetry re-executes the canonical request q with the epoch
// telemetry observer attached, streaming records into sink. It shares
// the suite's bounded trace cache but deliberately bypasses the result
// cache: the caller wants the epoch stream, not the digest, and the
// observer is proven non-perturbing (the returned result is
// bit-identical to SimResult's for the same hash). Callers that need
// dedup of concurrent identical streams layer it above this method.
func (s *Suite) SimTelemetry(ctx context.Context, q simreq.Request, sink telemetry.Sink) (*sim.Result, error) {
	rv, err := q.Resolve()
	if err != nil {
		return nil, err
	}
	if rv.Variant != "" {
		return nil, fmt.Errorf("exp: variant %q is not servable: named machine variants exist only inside experiment tables", rv.Variant)
	}
	tr, entry, err := s.acquireTrace(rv.Benchmark, rv.Scale, rv.Cores)
	if err != nil {
		return nil, err
	}
	defer s.releaseTrace(entry)
	cfg, opts := MachineOf(rv)
	opts.Observer = telemetry.NewCollector(sink, metaOf(rv))
	return sim.Simulate(ctx, tr, cfg, opts)
}

// PinnedTraceRefs reports the total number of outstanding trace pins —
// zero when no simulation is running or cached traces are all idle.
// Tests use it to prove cancelled requests do not leak references.
func (s *Suite) PinnedTraceRefs() int {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	n := 0
	//droplet:allow detmap -- summation is order-independent
	for _, e := range s.traces {
		n += e.refs
	}
	return n
}
