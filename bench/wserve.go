package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"droplet/internal/cpu"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/serve"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// coldEpochs is how many distinct epoch granularities the cold phase can
// draw, and so how many rounds a run can send.
const coldEpochs = 1000

// loadBenchmarks are the benchmarks cmd/droplet-load cycles through by
// default. droplet-load and CI's service job, which sends PR-kron, are the
// only clients of the service in the repository, and both send full-run
// requests naming only a benchmark and a scale, so the service workloads
// send the same.
var loadBenchmarks = []string{"PR-kron", "BFS-road", "CC-kron"}

// loadBody is the request body droplet-load sends for benchmark b.
func loadBody(b string) []byte {
	body, err := json.Marshal(map[string]any{"benchmark": b, "scale": "quick"})
	if err != nil {
		panic(err) // a map of strings always encodes
	}
	return body
}

// coldRequest is droplet-load's request for benchmark b with the
// telemetry epoch set to epoch. The epoch only sets the granularity of
// the epoch stream /v1/stream replays: the simulation, its drive path and
// its summary are those of droplet-load's request, but the hash differs,
// so the service simulates it afresh.
func coldRequest(b string, epoch int64) simreq.Request {
	return simreq.Request{Benchmark: b, Scale: "quick", EpochCycles: epoch}
}

// coldEpoch is the epoch granularity of cold round k, given the run's
// seed-drawn permutation of [0, coldEpochs): distinct for every round and
// never the 100 000-cycle default.
func coldEpoch(perm []uint32, k int) int64 {
	return 50_001 + 1_000*int64(perm[k])
}

// service is one running droplet-serve.
type service struct {
	url  string
	pid  int
	stop func() error
}

// startService starts droplet-serve from bin on a free local port with
// one simulation worker at quick scale, or serves in-process when bin is
// empty.
func startService(bin string, log io.Writer) (*service, error) {
	if bin == "" {
		return startInProcess()
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", "1", "-scale", "quick", "-grace", "5s")
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	out := bufio.NewReader(pipe)
	line, err := out.ReadString('\n')
	var url string
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "http://") {
			url = f
		}
	}
	stop := func(sig os.Signal) error {
		sigErr := cmd.Process.Signal(sig)
		io.Copy(io.Discard, out) // the pipe closes when the process exits
		if err := cmd.Wait(); err != nil {
			return err
		}
		return sigErr
	}
	if url == "" {
		stop(os.Kill) // the start already failed; its error is the one to report
		return nil, fmt.Errorf("droplet-serve did not report its address (read %q: %v)", line, err)
	}
	return &service{url: url, pid: cmd.Process.Pid, stop: func() error { return stop(syscall.SIGTERM) }}, nil
}

// startInProcess serves the same handler from this process.
func startInProcess() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	suite := exp.NewSuite(workload.Quick)
	suite.Jobs = 1
	srv := &http.Server{Handler: serve.New(suite)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		err := srv.Shutdown(context.Background())
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return &service{url: "http://" + ln.Addr().String(), pid: os.Getpid(), stop: stop}, nil
}

// newClient returns a client holding at most conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reply is one response.
type reply struct {
	status int
	cache  string
	body   []byte
}

func post(c *http.Client, url string, body []byte) (reply, error) {
	resp, err := c.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, err
}

// counters fetches the service's /metrics counters.
func counters(c *http.Client, url string) (map[string]int64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// canonicalBody is the request body the benchmark sends for q.
func canonicalBody(q simreq.Request) []byte {
	b, err := q.Canonical()
	if err != nil {
		panic(err) // the benchmark only builds valid requests
	}
	return b
}

// replyBody is a response body with its summary kept as bytes.
type replyBody struct {
	Version int             `json:"version"`
	Hash    string          `json:"hash"`
	Request json.RawMessage `json:"request"`
	Summary json.RawMessage `json:"summary"`
}

// serveLoad drives droplet-serve with droplet-load's requests. Setup sends
// each benchmark's request once, which builds its graph and leaves one
// cached body per benchmark. The cold phase then sends rounds of requests
// that each simulate, one per benchmark; the warm phase replays the setup
// requests, every one a cache hit. Both phases are closed loops on one
// connection.
type serveLoad struct {
	warmPhase bool
	bin       string
	log       io.Writer
	benches   []string

	svc      *service
	first    int      // index of the benchmark each rotation starts at
	rounds   int      // cold rounds sent to svc
	warmBody [][]byte // droplet-load's request bodies, one per benchmark
	warmResp [][]byte // the service's responses to them
	warmSum  [][]byte // the summaries in those responses
	warmLat  []time.Duration
}

func newServe(cfg Config, warm bool) *serveLoad {
	s := &serveLoad{warmPhase: warm, bin: cfg.ServeBin, log: cfg.Log, benches: loadBenchmarks}
	if cfg.Toy {
		s.benches = []string{"BFS-road", "PR-road"}
	}
	return s
}

// setup starts a fresh service and sends it one request per benchmark,
// starting at a seed-chosen benchmark and going round in a fixed order.
// The cold rounds keep that order, so no request finds the trace of the
// one before it in the service's one-entry trace cache.
func (s *serveLoad) setup(r *runner, last bool) error {
	svc, err := startService(s.bin, s.log)
	if err != nil {
		return err
	}
	s.svc, s.rounds = svc, 0
	c := newClient(1)
	defer c.CloseIdleConnections()
	n := len(s.benches)
	s.first = graph.NewRNG(r.seed(3)).Intn(n)
	s.warmBody, s.warmResp, s.warmSum, s.warmLat = make([][]byte, n), make([][]byte, n), make([][]byte, n), make([]time.Duration, n)
	for i := range n {
		j := (s.first + i) % n
		body := loadBody(s.benches[j])
		t0 := time.Now()
		rep, err := post(c, svc.url, body)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK || rep.cache != "miss" {
			return fmt.Errorf("warm request %s: status %d, X-Cache %q: %s", s.benches[j], rep.status, rep.cache, rep.body)
		}
		var got replyBody
		if err := json.Unmarshal(rep.body, &got); err != nil {
			return fmt.Errorf("warm request %s: decoding response: %w", s.benches[j], err)
		}
		s.warmLat[j], s.warmBody[j], s.warmResp[j], s.warmSum[j] = time.Since(t0), body, rep.body, got.Summary
	}
	if last {
		r.checkPinned(bytes.Join(s.warmResp, nil))
	}
	return nil
}

func (s *serveLoad) pid() int { return s.svc.pid }

func (s *serveLoad) measure(r *runner) error {
	if s.warmPhase {
		return s.measureWarm(r)
	}
	return s.measureCold(r)
}

// checkCold checks one cold response: a fresh simulation of exactly the
// request sent, whose summary equals that of the same benchmark's setup
// request (the epoch granularity does not change a simulation).
func (s *serveLoad) checkCold(r *runner, j int, q simreq.Request, rep reply) {
	hash, _ := q.Hash()
	if rep.status != http.StatusOK || rep.cache != "miss" {
		r.fail("cold %s: status %d, X-Cache %q", hash[:12], rep.status, rep.cache)
		return
	}
	var got replyBody
	if err := json.Unmarshal(rep.body, &got); err != nil {
		r.fail("cold %s: decoding response: %v", hash[:12], err)
		return
	}
	if got.Version != simreq.Version || got.Hash != hash || !bytes.Equal(got.Request, canonicalBody(q)) {
		r.fail("cold %s: response names version %d hash %s request %s", hash[:12], got.Version, got.Hash, got.Request)
	}
	if !bytes.Equal(got.Summary, s.warmSum[j]) {
		r.fail("cold %s: summary differs from the setup response for %s", hash[:12], s.benches[j])
	}
}

// checkDeltas checks the service's counters moved by exactly the phase's
// requests.
func checkDeltas(r *runner, before, after map[string]int64, sims, hits int64) {
	for name, want := range map[string]int64{"simulations_total": sims, "cache_hits_total": hits} {
		if got := after[name] - before[name]; got != want {
			r.fail("/metrics %s moved by %d, want %d", name, got, want)
		}
	}
}

// coldRound sends round k: one request per benchmark, back to back on c,
// checking each. It returns the round's requests, their latencies and the
// response bodies.
func (s *serveLoad) coldRound(r *runner, c *http.Client, perm []uint32, k int) ([]simreq.Request, []time.Duration, [][]byte, error) {
	n := len(s.benches)
	qs, lats, bodies := make([]simreq.Request, n), make([]time.Duration, n), make([][]byte, n)
	for i := range n {
		j := (s.first + i) % n
		qs[j] = coldRequest(s.benches[j], coldEpoch(perm, k))
		t0 := time.Now()
		rep, err := post(c, s.svc.url, canonicalBody(qs[j]))
		lats[j] = time.Since(t0)
		if err != nil {
			return nil, nil, nil, err
		}
		s.checkCold(r, j, qs[j], rep)
		bodies[j] = rep.body
	}
	return qs, lats, bodies, nil
}

// measureCold sends cold rounds until the deadline, going on from the
// rounds the service has already had. One operation is one round: a cold
// request for each benchmark, so every operation carries the same mix of
// kernels.
func (s *serveLoad) measureCold(r *runner) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	before, err := counters(c, s.svc.url)
	if err != nil {
		return err
	}
	perm := graph.NewRNG(r.seed(4)).Perm(coldEpochs)
	var perReq []float64
	rounds := 0
	for ; r.more(); rounds++ {
		if s.rounds == coldEpochs {
			return fmt.Errorf("cold phase used all %d rounds", coldEpochs)
		}
		t0 := time.Now()
		_, lats, _, err := s.coldRound(r, c, perm, s.rounds)
		s.rounds++
		if err != nil {
			return err
		}
		r.op(time.Since(t0))
		for _, l := range lats {
			perReq = append(perReq, millis(l))
		}
	}
	after, err := counters(c, s.svc.url)
	if err != nil {
		return err
	}
	checkDeltas(r, before, after, int64(len(perReq)), 0)
	fmt.Fprintf(r.log, "cold: %d rounds of %d requests; per request p50 %.1f ms, p90 %.1f ms\n",
		rounds, len(s.benches), median(perReq), percentile(perReq, 90))
	return nil
}

// measureWarm replays the setup requests, in a seed-drawn order, in a
// closed loop on one keep-alive connection until the deadline; every one
// is a cache hit.
func (s *serveLoad) measureWarm(r *runner) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	before, err := counters(c, s.svc.url)
	if err != nil {
		return err
	}
	rng := graph.NewRNG(r.seed(4))
	n := 0
	for ; r.more(); n++ {
		j := rng.Intn(len(s.benches))
		t0 := time.Now()
		rep, err := post(c, s.svc.url, s.warmBody[j])
		r.op(time.Since(t0))
		switch {
		case err != nil:
			return err
		case rep.status != http.StatusOK || rep.cache != "hit":
			r.fail("warm %s: status %d, X-Cache %q", s.benches[j], rep.status, rep.cache)
		case !bytes.Equal(rep.body, s.warmResp[j]):
			r.fail("warm %s: body differs from the setup response", s.benches[j])
		}
	}
	after, err := counters(c, s.svc.url)
	if err != nil {
		return err
	}
	checkDeltas(r, before, after, 0, int64(n))
	fmt.Fprintf(r.log, "warm: %d requests, p99 %.3f ms\n", n, percentile(r.ops.raw, 99))
	return nil
}

// machineFor is the machine the service simulates a resolved request on.
func machineFor(rv simreq.Resolved) sim.Config {
	cfg := exp.Machine(rv.Scale)
	cfg.Cores = rv.Cores
	cfg.Prefetcher = rv.Prefetcher
	cfg.LLC.Policy = rv.Replacement
	cfg.L1.Policy = rv.ReplacementL1
	cfg.L2.Policy = rv.ReplacementL2
	return cfg
}

// traced splits requests in-process into the service's stages — decode,
// graph, trace, simulate (with a cancellable context, as the service
// does) and encode — and checks each in-process body equals the
// service's byte for byte. The cold pass first sends one round to the
// service; the warm pass splits the setup requests, whose service
// latencies setup measured. The first request also runs on the traced
// machine.
func (s *serveLoad) traced(r *runner, ls *layers) error {
	bodies, lats := s.warmResp, s.warmLat
	reqs := make([]simreq.Request, len(s.benches))
	for j, b := range s.benches {
		reqs[j] = simreq.Request{Benchmark: b, Scale: "quick"}
	}
	if !s.warmPhase {
		// The service built every graph during setup; so does the pass.
		d, err := ls.sp.timed("graph.build", "", 0, func() error {
			for _, q := range reqs {
				rv, err := q.Resolve()
				if err != nil {
					return err
				}
				if _, err := workload.Graph(rv.Benchmark.Dataset, rv.Scale, rv.Benchmark.Algo.Weighted()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ls.graph = d
		c := newClient(1)
		defer c.CloseIdleConnections()
		perm := graph.NewRNG(r.seed(4)).Perm(coldEpochs)
		reqs, lats, bodies, err = s.coldRound(r, c, perm, 0)
		if err != nil {
			return err
		}
		for _, l := range lats {
			r.op(l)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var residual []float64
	for i, q := range reqs {
		work0 := ls.work
		if err := s.tracedCell(ctx, r, ls, i, q, bodies[i], i == 0); err != nil {
			return err
		}
		residual = append(residual, millis(lats[i]-(ls.work-work0)))
		ls.wall += lats[i]
	}
	fmt.Fprintf(r.log, "service time outside the in-process stages: p50 %.2f ms over %d requests\n", median(residual), len(residual))
	return nil
}

// tracedCell splits one request in-process. With traceIt set it then
// runs the request on the traced machine.
func (s *serveLoad) tracedCell(ctx context.Context, r *runner, ls *layers, i int, q simreq.Request, want []byte, traceIt bool) error {
	id := fmt.Sprint(i)
	cell := ls.sp.begin("cell", id, 0)
	defer ls.sp.end(cell)
	q, hash, err := ls.decodeRequest(cell, id, canonicalBody(q))
	if err != nil {
		return err
	}
	rv, err := q.Resolve()
	if err != nil {
		return err
	}
	g, err := ls.sp.timed("graph", id, cell, func() error {
		_, err := workload.Graph(rv.Benchmark.Dataset, rv.Scale, rv.Benchmark.Algo.Weighted())
		return err
	})
	if err != nil {
		return err
	}
	if s.warmPhase {
		ls.graph += g
	}
	var tr *trace.Trace
	gen, err := ls.sp.timed("trace.generate", id, cell, func() (err error) {
		tr, err = workload.GenerateTrace(rv.Benchmark, rv.Scale, rv.Cores)
		return err
	})
	if err != nil {
		return err
	}
	ls.traceGen += gen
	ls.traceEvents += tr.Events()
	cfg := machineFor(rv)
	var res *sim.Result
	d, err := ls.sp.timed("sim.run", id, cell, func() (err error) {
		res, err = sim.Simulate(ctx, tr, cfg, sim.Options{EpochCycles: rv.EpochCycles})
		return err
	})
	if err != nil {
		return err
	}
	r.op(g + gen + d)
	ls.simRuns = append(ls.simRuns, millis(d))
	ls.work += g + gen + d
	body, err := ls.encodeResponse(cell, id, q, hash, res)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		r.fail("request %s: in-process body differs from the service's", hash[:12])
	}
	if !traceIt {
		return nil
	}
	newCore := func(i int, port cpu.MemPort) *cpu.Core { return cpu.NewCore(i, cfg.CPU, port, tr.PerCore[i]) }
	// The traced machine drives like sim.Run, so its overhead is taken
	// against sim.Run.
	rerun := func() error {
		_, err := sim.Run(tr, cfg)
		return err
	}
	same, err := ls.traceCell(cell, id, cfg, tr.Layout, nil, newCore, res, rerun)
	if err != nil {
		return err
	}
	if !same {
		r.fail("request %s: traced run's summary differs from the untraced run's", hash[:12])
	}
	return nil
}

// close stops the service, if one is running, which drops every input.
func (s *serveLoad) close() error {
	if s.svc == nil {
		return nil
	}
	err := s.svc.stop()
	s.svc = nil
	return err
}
