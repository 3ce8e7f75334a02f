package simreq

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"droplet/internal/workload"
)

// TestCanonicalGolden pins the canonical encoding and hash of the
// default request. These bytes are the cross-process cache-key contract
// (scheduler, telemetry file names, HTTP service): if this test breaks,
// every previously published result hash is invalidated — bump Version
// instead of silently changing the encoding.
func TestCanonicalGolden(t *testing.T) {
	r := Request{Benchmark: "pr-kron"}
	got, err := r.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":1,"benchmark":"PR-kron","scale":"quick","cores":4,"prefetcher":"nopf","replacement":"lru","replacement_l1":"lru","replacement_l2":"lru"}`
	if string(got) != want {
		t.Errorf("canonical JSON:\n got %s\nwant %s", got, want)
	}
	hash, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = "4d5ea495dcbe6be016a8d3b5edef73d387889933bd1fcb19ab106bf5d58149e0"
	if hash != wantHash {
		t.Errorf("Hash() = %s, want %s", hash, wantHash)
	}
}

// TestNormalizeIdempotent checks spelling-insensitive equivalence: the
// same simulation spelled differently hashes identically, and
// normalizing twice is a fixed point.
func TestNormalizeIdempotent(t *testing.T) {
	a := Request{Benchmark: "pr-kron", Scale: "quick", Cores: 4, Prefetcher: "nopf"}
	b := Request{SchemaVersion: 1, Benchmark: "PR-kron", Replacement: "lru"}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent spellings hash differently: %s vs %s", ha, hb)
	}
	n, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Errorf("Normalize not idempotent: %+v vs %+v", n, n2)
	}
}

// TestHashDistinguishes checks every field participates in the identity.
func TestHashDistinguishes(t *testing.T) {
	base := Request{Benchmark: "PR-kron"}
	variants := []Request{
		{Benchmark: "BFS-kron"},
		{Benchmark: "PR-road"},
		{Benchmark: "PR-kron", Scale: "full"},
		{Benchmark: "PR-kron", Cores: 8},
		{Benchmark: "PR-kron", Prefetcher: "droplet"},
		{Benchmark: "PR-kron", Replacement: "drrip"},
		{Benchmark: "PR-kron", ReplacementL1: "ship"},
		{Benchmark: "PR-kron", ReplacementL2: "srrip"},
		{Benchmark: "PR-kron", Variant: "no L2"},
		{Benchmark: "PR-kron", EpochCycles: 20000},
		{Benchmark: "PR-kron", Sampling: &Sampling{IntervalEpochs: 64}},
		{Benchmark: "PR-kron", Sampling: &Sampling{IntervalEpochs: 64, Warming: "none"}},
	}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{baseHash: -1}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("variants %d and %d hash identically: %+v vs %+v", prev, i, v, variants[max(prev, 0)])
		}
		seen[h] = i
	}
}

// TestDecodeStrict checks strict decoding: unknown fields are rejected,
// and a round trip through canonical bytes is the identity.
func TestDecodeStrict(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"benchmark":"PR-kron","prefetchr":"droplet"}`)); err == nil {
		t.Error("Decode accepted an unknown field")
	} else if !strings.Contains(err.Error(), "prefetchr") {
		t.Errorf("unknown-field error does not name the field: %v", err)
	}

	canon, err := Request{Benchmark: "CC-road", Prefetcher: "pickle", EpochCycles: 5000}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(strings.NewReader(string(canon)))
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(canon2) {
		t.Errorf("canonical round trip not stable:\n first %s\nsecond %s", canon, canon2)
	}
}

// TestDecodeTrailingData checks that a body holding anything after the
// request but whitespace is a syntax error, not a FieldErrors: trailing
// garbage, a stray bracket, and a second object whose unknown field
// would otherwise never be read.
func TestDecodeTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"benchmark":"PR-kron"}garbage`,
		`{"benchmark":"PR-kron"}]`,
		`{"benchmark":"PR-kron"} {"benchmark":"BFS-road","bogus":1}`,
	} {
		_, err := Decode(strings.NewReader(body))
		var fe FieldErrors
		if err == nil || errors.As(err, &fe) {
			t.Errorf("Decode(%s) = %v, want a syntax error", body, err)
		}
	}
	for _, body := range []string{"{\"benchmark\":\"PR-kron\"}\n", " \t{\"benchmark\":\"PR-kron\"}\r\n "} {
		if _, err := Decode(strings.NewReader(body)); err != nil {
			t.Errorf("Decode(%q) rejected surrounding whitespace: %v", body, err)
		}
	}
}

// TestFieldErrors checks that every invalid field is reported, each
// through the shared valid-name error format.
func TestFieldErrors(t *testing.T) {
	r := Request{
		SchemaVersion: 99,
		Benchmark:     "PR-nope",
		Scale:         "tiny",
		Cores:         -1,
		Prefetcher:    "warp",
		Replacement:   "fifo",
		Sampling:      &Sampling{IntervalEpochs: 8, Warming: "cryogenic"},
	}
	_, err := r.Resolve()
	var fe FieldErrors
	if !errors.As(err, &fe) {
		t.Fatalf("Resolve error is %T, want FieldErrors: %v", err, err)
	}
	wantFields := []string{"version", "benchmark", "scale", "cores", "prefetcher", "replacement", "sampling.warming"}
	if len(fe) != len(wantFields) {
		t.Fatalf("got %d field errors %v, want %d", len(fe), fe, len(wantFields))
	}
	for i, f := range fe {
		if f.Field != wantFields[i] {
			t.Errorf("field error %d is %q, want %q", i, f.Field, wantFields[i])
		}
	}
	for _, f := range fe[4:6] {
		if !strings.Contains(f.Error, "valid:") {
			t.Errorf("%s error %q does not list the valid set", f.Field, f.Error)
		}
	}
}

// TestResolveTyped checks the typed view against the workload registry.
// TestSamplingBlockRejected checks that a sampling block whose fields
// each pass but which the simulator cannot run — an interval shorter
// than warmup + detail — is reported as one field error on "sampling",
// in the simulator's own words.
func TestSamplingBlockRejected(t *testing.T) {
	_, err := Request{Benchmark: "PR-kron", Sampling: &Sampling{IntervalEpochs: 2, DetailEpochs: 3}}.Resolve()
	var fe FieldErrors
	if !errors.As(err, &fe) || len(fe) != 1 || fe[0].Field != "sampling" {
		t.Fatalf("Resolve error = %v, want one field error on sampling", err)
	}
	if want := "sim: sampling interval 2 shorter than warmup 1 + detail 3"; fe[0].Error != want {
		t.Errorf("sampling error = %q, want %q", fe[0].Error, want)
	}
}

func TestResolveTyped(t *testing.T) {
	rv, err := Request{Benchmark: "sssp-livejournal", Scale: "full", Sampling: &Sampling{IntervalEpochs: 32}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rv.Benchmark != (workload.Benchmark{Algo: workload.SSSP, Dataset: "livejournal"}) {
		t.Errorf("benchmark = %+v", rv.Benchmark)
	}
	if rv.Scale != workload.Full || rv.Cores != DefaultCores {
		t.Errorf("scale/cores = %v/%d", rv.Scale, rv.Cores)
	}
	if !rv.Sampling.Enabled() {
		t.Error("sampling not enabled")
	}
}

// TestCoresBound checks the core count against the hierarchy's limit:
// zero is the default machine, memsys.MaxCores the largest accepted, and
// anything above it a field error on cores, reported before a trace or
// machine is built for it.
func TestCoresBound(t *testing.T) {
	for _, tc := range []struct{ cores, want int }{{0, DefaultCores}, {16, 16}} {
		rv, err := Request{Benchmark: "BFS-road", Cores: tc.cores}.Resolve()
		if err != nil || rv.Cores != tc.want {
			t.Errorf("cores %d resolved to %d, %v; want %d", tc.cores, rv.Cores, err, tc.want)
		}
	}
	for _, cores := range []int{17, 1 << 20} {
		_, err := Request{Benchmark: "BFS-road", Cores: cores}.Resolve()
		var fe FieldErrors
		if !errors.As(err, &fe) || len(fe) != 1 || fe[0].Field != "cores" {
			t.Errorf("cores %d: Resolve error = %v, want one field error on cores", cores, err)
		}
	}
}

// TestVariantGolden pins that the JSON field set stays closed: adding a
// field without bumping Version silently splits the cache keyspace.
func TestVariantGolden(t *testing.T) {
	b, err := json.Marshal(Request{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{"benchmark", "cores", "prefetcher", "replacement", "replacement_l1", "replacement_l2", "scale", "version"}
	if len(m) != len(want) {
		t.Errorf("zero request marshals %d always-present fields, want %d (%v)", len(m), len(want), m)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("always-present field %q missing", k)
		}
	}
}
