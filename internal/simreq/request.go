// Package simreq defines the canonical, versioned simulation request —
// the one value type that names a timing simulation everywhere in the
// module: the experiment scheduler's result cache, telemetry file
// naming, and the HTTP service all key on Request.Hash().
//
// A request is canonical after Normalize: every enum field holds the
// exact spelling its Parse* helper round-trips (benchmark "PR-kron",
// prefetcher "droplet", …), defaults are filled in explicitly, and the
// version tag is set. Canonical JSON is the encoding/json marshaling of
// that normalized struct — fixed field order, no maps — so two equal
// requests always encode to identical bytes, and Hash() (SHA-256 of the
// canonical JSON, hex) is a stable identity across processes, hosts,
// and releases of the same request version.
package simreq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// Version is the current request schema version. Decode rejects other
// versions: a hash is only comparable within one version, so bumping
// this constant deliberately invalidates every cached result.
const Version = 1

// DefaultCores is the simulated core count when a request leaves Cores
// zero (the Table I machine).
const DefaultCores = 4

// Request names one timing simulation. The zero value of every field is
// a valid "default" spelling that Normalize resolves: empty scale means
// quick, zero cores means DefaultCores, empty prefetcher means nopf,
// empty replacement fields mean lru.
type Request struct {
	// SchemaVersion is the request schema version (0 is accepted on
	// input and normalized to Version).
	SchemaVersion int `json:"version"`
	// Benchmark is the ALGO-dataset pair ("PR-kron"), case-insensitive
	// on the algorithm half.
	Benchmark string `json:"benchmark"`
	// Scale selects workload sizing: quick, full, or huge.
	Scale string `json:"scale"`
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// Prefetcher selects the prefetch configuration ("nopf", "droplet", …).
	Prefetcher string `json:"prefetcher"`
	// Replacement, ReplacementL1, and ReplacementL2 select the LLC and
	// private-cache replacement policies ("lru", "drrip", …).
	Replacement   string `json:"replacement"`
	ReplacementL1 string `json:"replacement_l1"`
	ReplacementL2 string `json:"replacement_l2"`
	// Variant names a machine variant applied on top of the baseline
	// (experiment tables only; the empty string — the baseline — is the
	// only variant the HTTP service accepts, since variants are defined
	// by in-process mutation functions, not by the wire schema).
	Variant string `json:"variant,omitempty"`
	// EpochCycles sets the telemetry epoch granularity in core cycles
	// (0 means sim.DefaultEpochCycles). It never changes the simulation
	// result, but it does change the epoch stream /v1/stream serves, so
	// it is part of the canonical identity.
	EpochCycles int64 `json:"epoch_cycles,omitempty"`
	// Sampling, when non-nil, runs the simulation under SMARTS interval
	// sampling.
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Sampling is the wire form of sim.Sampling.
type Sampling struct {
	IntervalEpochs int `json:"interval_epochs"`
	DetailEpochs   int `json:"detail_epochs,omitempty"`
	WarmupEpochs   int `json:"warmup_epochs,omitempty"`
	// Warming is "functional" (default) or "none".
	Warming string `json:"warming,omitempty"`
}

// FieldError reports one invalid request field.
type FieldError struct {
	Field string `json:"field"`
	Error string `json:"error"`
}

// FieldErrors is the full set of invalid fields in a request. It is the
// error type Normalize and Decode return for content (as opposed to
// syntax) problems, and the shape the HTTP service renders into 400
// bodies.
type FieldErrors []FieldError

// Error implements error.
func (fe FieldErrors) Error() string {
	msgs := make([]string, len(fe))
	for i, f := range fe {
		msgs[i] = f.Field + ": " + f.Error
	}
	return "simreq: invalid request: " + strings.Join(msgs, "; ")
}

// Resolved is the typed view of a normalized request, ready to execute.
type Resolved struct {
	Benchmark     workload.Benchmark
	Scale         workload.Scale
	Cores         int
	Prefetcher    core.PrefetcherKind
	Replacement   cache.Kind
	ReplacementL1 cache.Kind
	ReplacementL2 cache.Kind
	Variant       string
	EpochCycles   int64
	Sampling      sim.Sampling
}

// Request re-canonicalizes the resolved view — the inverse of Resolve.
func (rv Resolved) Request() Request {
	q := Request{
		SchemaVersion: Version,
		Benchmark:     rv.Benchmark.String(),
		Scale:         rv.Scale.String(),
		Cores:         rv.Cores,
		Prefetcher:    rv.Prefetcher.String(),
		Replacement:   rv.Replacement.String(),
		ReplacementL1: rv.ReplacementL1.String(),
		ReplacementL2: rv.ReplacementL2.String(),
		Variant:       rv.Variant,
		EpochCycles:   rv.EpochCycles,
	}
	if rv.Sampling.Enabled() {
		q.Sampling = &Sampling{
			IntervalEpochs: rv.Sampling.IntervalEpochs,
			DetailEpochs:   rv.Sampling.DetailEpochs,
			WarmupEpochs:   rv.Sampling.WarmupEpochs,
			Warming:        rv.Sampling.Warming.String(),
		}
	}
	return q
}

// Resolve validates every field of r through the module's Parse*
// helpers and returns the typed view. All invalid fields are collected
// into one FieldErrors — a caller fixing a rejected request sees the
// complete list, not the first failure.
func (r Request) Resolve() (Resolved, error) {
	var rv Resolved
	var errs FieldErrors
	fail := func(field string, err error) { errs = append(errs, FieldError{field, err.Error()}) }

	if r.SchemaVersion != 0 && r.SchemaVersion != Version {
		fail("version", fmt.Errorf("simreq: unsupported schema version %d (this build speaks %d)", r.SchemaVersion, Version))
	}
	var err error
	if r.Benchmark == "" {
		fail("benchmark", fmt.Errorf("simreq: benchmark is required (ALGO-dataset, e.g. PR-kron)"))
	} else if rv.Benchmark, err = workload.ParseBenchmark(r.Benchmark); err != nil {
		fail("benchmark", err)
	}
	if r.Scale != "" {
		if rv.Scale, err = workload.ParseScale(r.Scale); err != nil {
			fail("scale", err)
		}
	}
	rv.Cores = r.Cores
	switch {
	case r.Cores == 0:
		rv.Cores = DefaultCores
	case r.Cores < 0:
		fail("cores", fmt.Errorf("simreq: negative core count %d", r.Cores))
	case r.Cores > memsys.MaxCores:
		fail("cores", fmt.Errorf("simreq: %d cores, the hierarchy serves at most %d", r.Cores, memsys.MaxCores))
	}
	if r.Prefetcher != "" {
		if rv.Prefetcher, err = core.ParseKind(r.Prefetcher); err != nil {
			fail("prefetcher", err)
		}
	}
	for _, f := range []struct {
		field string
		name  string
		dst   *cache.Kind
	}{
		{"replacement", r.Replacement, &rv.Replacement},
		{"replacement_l1", r.ReplacementL1, &rv.ReplacementL1},
		{"replacement_l2", r.ReplacementL2, &rv.ReplacementL2},
	} {
		if f.name == "" {
			continue
		}
		if *f.dst, err = cache.ParseReplacement(f.name); err != nil {
			fail(f.field, err)
		}
	}
	rv.Variant = r.Variant
	if r.EpochCycles < 0 {
		fail("epoch_cycles", fmt.Errorf("simreq: negative epoch granularity %d", r.EpochCycles))
	}
	rv.EpochCycles = r.EpochCycles
	if s := r.Sampling; s != nil {
		fieldErrs := len(errs)
		if s.IntervalEpochs <= 0 {
			fail("sampling.interval_epochs", fmt.Errorf("simreq: sampling interval must be positive, got %d", s.IntervalEpochs))
		}
		if s.DetailEpochs < 0 {
			fail("sampling.detail_epochs", fmt.Errorf("simreq: negative detail epochs %d", s.DetailEpochs))
		}
		if s.WarmupEpochs < 0 {
			fail("sampling.warmup_epochs", fmt.Errorf("simreq: negative warmup epochs %d", s.WarmupEpochs))
		}
		rv.Sampling = sim.Sampling{
			IntervalEpochs: s.IntervalEpochs,
			DetailEpochs:   s.DetailEpochs,
			WarmupEpochs:   s.WarmupEpochs,
		}
		if s.Warming != "" {
			if rv.Sampling.Warming, err = sim.ParseWarming(s.Warming); err != nil {
				fail("sampling.warming", err)
			}
		}
		if len(errs) == fieldErrs {
			if err := rv.Sampling.Validate(); err != nil {
				fail("sampling", err)
			}
		}
	}
	if errs != nil {
		return Resolved{}, errs
	}
	return rv, nil
}

// Normalize returns the canonical form of r: every enum rewritten to
// its round-trip spelling, defaults filled in, version tagged. Two
// requests that resolve to the same simulation normalize to the same
// value.
func (r Request) Normalize() (Request, error) {
	rv, err := r.Resolve()
	if err != nil {
		return Request{}, err
	}
	return rv.Request(), nil
}

// Canonical returns the canonical JSON encoding of r (normalizing
// first). The bytes are deterministic: fixed struct field order and no
// maps.
func (r Request) Canonical() ([]byte, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the stable cache-key identity of r: the lowercase-hex
// SHA-256 of its canonical JSON.
func (r Request) Hash() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Decode reads one JSON request from rd strictly and returns its
// normalized form. Unknown fields are rejected, not ignored, so a
// misspelled field never silently falls back to its default. The input
// must hold exactly one JSON value: anything after it but whitespace —
// garbage, a stray bracket, or a second object that would carry an
// unknown field past that check unread — is a syntax error. Syntax
// errors come back as plain errors; content errors as FieldErrors.
func Decode(rd io.Reader) (Request, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return Request{}, fmt.Errorf("simreq: decoding request: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
	case err != nil:
		return Request{}, fmt.Errorf("simreq: decoding request: after the request: %w", err)
	default:
		return Request{}, errors.New("simreq: decoding request: more than one JSON value")
	}
	return r.Normalize()
}
