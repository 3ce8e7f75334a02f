package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"droplet/internal/exp"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *exp.Suite) {
	t.Helper()
	suite := exp.NewSuite(workload.Quick)
	suite.Jobs = 2
	return New(suite), suite
}

// TestSimulateBadRequest checks the 400 contract: invalid fields come
// back as a complete structured list, unknown JSON fields are rejected.
func TestSimulateBadRequest(t *testing.T) {
	srv, _ := newTestServer(t)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"PR-nope","prefetcher":"warp"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var body struct {
		Error  string `json:"error"`
		Fields []struct {
			Field string `json:"field"`
			Error string `json:"error"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Fields) != 2 {
		t.Fatalf("got %d field errors, want 2: %+v", len(body.Fields), body)
	}
	if body.Fields[0].Field != "benchmark" || body.Fields[1].Field != "prefetcher" {
		t.Errorf("field errors name %q/%q, want benchmark/prefetcher", body.Fields[0].Field, body.Fields[1].Field)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"PR-kron","prefetchr":"droplet"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown-field request: status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "prefetchr") {
		t.Errorf("unknown-field 400 does not name the field: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"PR-kron","variant":"no L2"}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "variant") {
		t.Errorf("variant request: status = %d body = %s, want 400 naming variant", rec.Code, rec.Body.String())
	}

	// A core count past the hierarchy's limit is a field error, not a
	// machine built for it: its translation memos alone would need 8 GiB.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"BFS-road","cores":1048576}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"field":"cores"`) {
		t.Errorf("cores request: status = %d body = %s, want 400 naming cores", rec.Code, rec.Body.String())
	}
	if n := srv.MetricsSnapshot()["simulations_total"]; n != 0 {
		t.Errorf("simulations_total = %d after rejected requests, want 0", n)
	}
}

// TestSimulateTrailingData checks that a body with anything after the
// request object is a 400 before any simulation: trailing garbage, a
// stray bracket, or a second object carrying an unknown field.
func TestSimulateTrailingData(t *testing.T) {
	srv, _ := newTestServer(t)
	bodies := []string{
		`{"benchmark":"PR-kron"}garbage`,
		`{"benchmark":"PR-kron"}]`,
		`{"benchmark":"PR-kron"} {"benchmark":"BFS-road","bogus":1}`,
	}
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status = %d, want 400: %s", body, rec.Code, rec.Body.String())
		}
	}
	m := srv.MetricsSnapshot()
	if m["bad_requests_total"] != int64(len(bodies)) || m["simulations_total"] != 0 {
		t.Errorf("bad_requests_total = %d, simulations_total = %d; want %d and 0",
			m["bad_requests_total"], m["simulations_total"], len(bodies))
	}
}

// TestSimulateInvalidSampling checks that a sampling block the
// simulator would reject is a 400 naming the sampling field, caught
// before any trace is built or simulation counted.
func TestSimulateInvalidSampling(t *testing.T) {
	srv, suite := newTestServer(t)
	before := srv.MetricsSnapshot()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"PR-kron","sampling":{"interval_epochs":2,"detail_epochs":3}}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Fields []struct {
			Field string `json:"field"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Fields) != 1 || body.Fields[0].Field != "sampling" {
		t.Errorf("field errors = %+v, want one naming sampling", body.Fields)
	}
	after := srv.MetricsSnapshot()
	for _, k := range []string{"simulations_total", "sim_errors_total"} {
		if after[k] != before[k] {
			t.Errorf("%s moved from %d to %d", k, before[k], after[k])
		}
	}
	if after["bad_requests_total"] != before["bad_requests_total"]+1 {
		t.Errorf("bad_requests_total = %d, want %d", after["bad_requests_total"], before["bad_requests_total"]+1)
	}
	if n := suite.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after a rejected request", n)
	}
}

// TestSimulateCacheByteIdentity pins the ISSUE acceptance criterion:
// submitting the same canonical request twice returns the cached result
// with a byte-identical body and no second simulation — including for
// concurrent duplicates, which collapse onto one flight.
func TestSimulateCacheByteIdentity(t *testing.T) {
	srv, suite := newTestServer(t)
	runs := 0
	var mu sync.Mutex
	suite.Progress = func(string) { mu.Lock(); runs++; mu.Unlock() }

	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
			strings.NewReader(`{"benchmark":"pr-kron","scale":"quick"}`)))
		return rec
	}

	const dup = 4
	recs := make([]*httptest.ResponseRecorder, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			//droplet:allow synccapture -- per-index scatter write joined by wg.Wait
			recs[i] = post()
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("concurrent POST %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got, want := rec.Body.String(), recs[0].Body.String(); got != want {
			t.Errorf("concurrent POST %d body differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	if runs != 1 {
		t.Errorf("concurrent duplicates ran %d simulations, want 1", runs)
	}

	again := post()
	if again.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", again.Header().Get("X-Cache"))
	}
	if again.Body.String() != recs[0].Body.String() {
		t.Error("repeat request body is not byte-identical to the first response")
	}
	if runs != 1 {
		t.Errorf("repeat request ran a second simulation (total %d)", runs)
	}

	// The result must be retrievable by its hash, byte-identically.
	var body struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(again.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want, err := simreq.Request{Benchmark: "PR-kron"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if body.Hash != want {
		t.Errorf("response hash = %s, want canonical %s", body.Hash, want)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/results/"+body.Hash, nil))
	if rec.Code != http.StatusOK || rec.Body.String() != again.Body.String() {
		t.Errorf("GET /v1/results/%s: status %d, body identical = %v", body.Hash, rec.Code, rec.Body.String() == again.Body.String())
	}
}

// TestResultsUnknownHash checks the 404 path.
func TestResultsUnknownHash(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/results/deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

// TestSimulateCancelledContext checks that an abandoned request leaks
// nothing: no cached body, no pinned trace references, and the next
// identical request succeeds from scratch.
func TestSimulateCancelledContext(t *testing.T) {
	srv, suite := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"bfs-road"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)

	if n := suite.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after cancelled request", n)
	}
	hash, err := simreq.Request{Benchmark: "BFS-road"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.cachedBody(hash); ok {
		t.Error("cancelled request left a cached result body")
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"bfs-road"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after cancellation: status %d: %s", rec.Code, rec.Body.String())
	}
	if n := suite.PinnedTraceRefs(); n != 0 {
		t.Errorf("%d trace references pinned after completed request", n)
	}
}

// TestStreamEndpoint checks /v1/stream: 404 before the result exists, a
// valid JSONL epoch stream after, and a byte-identical second replay.
func TestStreamEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	hash, err := simreq.Request{Benchmark: "CC-kron", EpochCycles: 20000}.Hash()
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/"+hash, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("stream before simulate: status %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"benchmark":"CC-kron","epoch_cycles":20000}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/"+hash, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body.String())
	}
	first := rec.Body.String()
	meta, n, err := telemetry.ValidateJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatalf("stream is not a valid telemetry JSONL: %v", err)
	}
	if n == 0 {
		t.Error("stream contains no epoch records")
	}
	if meta.EpochCycles != 20000 {
		t.Errorf("stream meta epoch_cycles = %d, want 20000", meta.EpochCycles)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/"+hash, nil))
	if rec.Body.String() != first {
		t.Error("replayed stream is not byte-identical")
	}
}

// TestStreamFailsBeforeMeta: a replay that fails before its meta line is
// written answers 500 with a JSON error, not an empty 200.
func TestStreamFailsBeforeMeta(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.results["broken"] = &result{req: simreq.Request{Benchmark: "PR-nope"}}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/broken", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed replay: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("failed replay body %q is not a JSON error (%v)", rec.Body.String(), err)
	}
}

// TestHealthAndMetrics checks the operational endpoints.
func TestHealthAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz status = %d", rec.Code)
	}
	if b, _ := io.ReadAll(rec.Body); string(b) != "ok\n" {
		t.Errorf("healthz body = %q", b)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"requests_total", "cache_hits_total", "simulations_total"} {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing %q", k)
		}
	}
}
