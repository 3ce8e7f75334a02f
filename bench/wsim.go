package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"time"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// simOutput checks the outputs of repeated runs of one simulation: every
// instruction of the trace dispatched, every repetition's summary
// identical, and the first matching the pinned digest.
type simOutput struct {
	first []byte
}

// check checks one run's result; instructions is the count the trace
// holds.
func (o *simOutput) check(r *runner, res *sim.Result, instructions int64) {
	if res.Instructions != instructions {
		r.fail("simulation dispatched %d instructions; the trace holds %d", res.Instructions, instructions)
	}
	got := summaryJSON(res)
	if o.first == nil {
		o.first = got
		r.checkPinned(got)
		return
	}
	if !bytes.Equal(got, o.first) {
		r.fail("summary differs between repetitions of one simulation")
	}
}

// instructions is the number of instructions a trace's stored events
// carry: each event's preceding compute plus the memory instruction
// itself. A truncated trace's Instructions also counts the kernel's
// instructions past the budget, which no event carries.
func instructions(tr *trace.Trace) int64 {
	var n int64
	for _, s := range tr.PerCore {
		for _, ev := range s {
			n += int64(ev.Comp)
			if ev.Kind != trace.KindBarrier {
				n++
			}
		}
	}
	return n
}

// registryBody is the request body naming the registry simulation of the
// same kernel, dataset class, scale and prefetcher as a workload's own
// generated input. Single-simulation workloads time the request envelope
// on it, since their seeded graphs have no wire name of their own.
func registryBody(b workload.Benchmark, sc workload.Scale, kind core.PrefetcherKind) []byte {
	body, err := json.Marshal(simreq.Request{Benchmark: b.String(), Scale: sc.String(), Prefetcher: kind.String()})
	if err != nil {
		panic(err) // a Request is plain strings and numbers
	}
	return body
}

// Sizes of the single-simulation workloads, chosen so that one simulation
// takes about half a second or less on a quiet host and a run holds a
// dozen or more: the host's speed drifts by up to 1.8× for periods of
// seconds to minutes, and a run's fastest tenth reads steadier from run
// to run than its median. The BFS operation also runs the trace
// producers, which share the host's two CPUs with the simulation and make
// it vary more; at 256 × 256 a run holds about fifty.
const (
	prKronEvents = 2_400_000
	bfsRoadSide  = 256
)

// prKron is PageRank on a seeded Kronecker graph, simulated from a
// materialized trace on the Full machine with DROPLET — the paper's
// headline configuration. The trace holds prKronEvents events, a fifth of
// the Full budget, so a run holds a dozen to twenty simulations.
type prKron struct {
	scale  int
	budget int64
	cfg    sim.Config

	tr        *trace.Trace
	instr     int64 // instructions the trace's events carry; 0 until counted
	graphTime time.Duration
	traceTime time.Duration
	out       simOutput
}

func newPRKron(cfg Config) *prKron {
	w := &prKron{scale: 17, budget: prKronEvents, cfg: exp.Machine(workload.Full)}
	if cfg.Toy {
		w.scale, w.budget = 10, 50_000
	}
	w.cfg.Prefetcher = core.DROPLET
	return w
}

func (w *prKron) setup(r *runner, _ bool) error {
	t0 := time.Now()
	g, err := graph.Kron(w.scale, 16, graph.GenOptions{Seed: r.seed(1), Symmetrize: true})
	if err != nil {
		return err
	}
	gt := g.Transpose()
	w.graphTime = time.Since(t0)
	t1 := time.Now()
	w.tr, _ = trace.PageRank(g, gt, trace.Options{Cores: w.cfg.Cores, MaxEvents: w.budget, PRIters: 2})
	w.traceTime = time.Since(t1)
	return nil
}

func (w *prKron) pid() int { return os.Getpid() }

// check checks one run's result against the trace, counting the trace's
// instructions on first use (outside any timed region).
func (w *prKron) check(r *runner, res *sim.Result) {
	if w.instr == 0 {
		w.instr = instructions(w.tr)
	}
	w.out.check(r, res, w.instr)
}

// measure times sim.Run on the materialized trace.
func (w *prKron) measure(r *runner) error {
	for r.more() {
		t0 := time.Now()
		res, err := sim.Run(w.tr, w.cfg)
		if err != nil {
			return err
		}
		r.op(time.Since(t0))
		w.check(r, res)
	}
	return nil
}

func (w *prKron) traced(r *runner, ls *layers) error {
	ls.graph, ls.traceGen, ls.traceEvents = w.graphTime, w.traceTime, w.tr.Events()
	ls.work = w.traceTime
	cell := ls.sp.begin("cell", "0", 0)
	q, hash, err := ls.decodeRequest(cell, "0", registryBody(workload.Benchmark{Algo: workload.PR, Dataset: "kron"}, workload.Full, core.DROPLET))
	if err != nil {
		return err
	}
	var ref *sim.Result
	d, err := ls.sp.timed("sim.run", "0", cell, func() (err error) {
		ref, err = sim.Run(w.tr, w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	r.op(d)
	w.check(r, ref)
	ls.simRuns = append(ls.simRuns, millis(d))
	ls.work += d
	if _, err := ls.encodeResponse(cell, "0", q, hash, ref); err != nil {
		return err
	}
	ls.wall = ls.work
	newCore := func(i int, port cpu.MemPort) *cpu.Core { return cpu.NewCore(i, w.cfg.CPU, port, w.tr.PerCore[i]) }
	rerun := func() error {
		_, err := sim.Run(w.tr, w.cfg)
		return err
	}
	same, err := ls.traceCell(cell, "0", w.cfg, w.tr.Layout, nil, newCore, ref, rerun)
	if err != nil {
		return err
	}
	if !same {
		r.fail("traced run's summary differs from the untraced run's")
	}
	ls.sp.end(cell)
	return nil
}

func (w *prKron) close() error {
	w.tr, w.instr = nil, 0
	return nil
}

// bfsRoad is a whole BFS on a seeded road-like mesh, streamed through
// trace.Stream into the unscaled Table I machine (8 MB LLC) with no
// prefetcher; trace generation runs inside the timed operation. The whole
// traversal does the same work whatever the seed; one cut short by an
// event budget covers a seed-dependent region, and its host time varied
// by 30% from seed to seed.
type bfsRoad struct {
	side int
	cfg  sim.Config

	g         *graph.CSR
	src       uint32
	graphTime time.Duration
	out       simOutput
}

func newBFSRoad(cfg Config) *bfsRoad {
	w := &bfsRoad{side: bfsRoadSide, cfg: exp.Machine(workload.Huge)}
	if cfg.Toy {
		w.side = 64
	}
	return w
}

func (w *bfsRoad) setup(r *runner, _ bool) error {
	t0 := time.Now()
	g, err := graph.Grid(w.side, w.side, graph.GenOptions{Seed: r.seed(2)})
	if err != nil {
		return err
	}
	w.g, w.src = g, graph.LargestComponentSource(g)
	w.graphTime = time.Since(t0)
	return nil
}

func (w *bfsRoad) stream() *trace.Stream {
	return trace.StreamBFS(w.g, w.src, trace.Options{Cores: w.cfg.Cores, PRIters: 2}, trace.StreamConfig{})
}

func (w *bfsRoad) pid() int { return os.Getpid() }

// measure times sim.SimulateStream, trace generation included.
func (w *bfsRoad) measure(r *runner) error {
	for r.more() {
		st := w.stream()
		t0 := time.Now()
		res, err := sim.SimulateStream(context.Background(), st, w.cfg, sim.Options{})
		if err != nil {
			return err
		}
		r.op(time.Since(t0))
		w.out.check(r, res, st.Instructions())
	}
	return nil
}

func (w *bfsRoad) traced(r *runner, ls *layers) error {
	ls.graph = w.graphTime
	cell := ls.sp.begin("cell", "0", 0)
	q, hash, err := ls.decodeRequest(cell, "0", registryBody(workload.Benchmark{Algo: workload.BFS, Dataset: "road"}, workload.Huge, core.NoPrefetch))
	if err != nil {
		return err
	}
	st := w.stream()
	var ref *sim.Result
	d, err := ls.sp.timed("sim.run", "0", cell, func() (err error) {
		ref, err = sim.SimulateStream(context.Background(), st, w.cfg, sim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	r.op(d)
	w.out.check(r, ref, st.Instructions())
	ls.simRuns = append(ls.simRuns, millis(d))
	ls.work += d
	if _, err := ls.encodeResponse(cell, "0", q, hash, ref); err != nil {
		return err
	}
	ls.wall = ls.work

	st = w.stream()
	st.Start()
	defer st.Stop()
	srcs := make([]*timedSource, w.cfg.Cores)
	for i := range srcs {
		srcs[i] = &timedSource{src: st.Source(i)}
	}
	newCore := func(i int, port cpu.MemPort) *cpu.Core {
		return cpu.NewStreamingCore(i, w.cfg.CPU, port, srcs[i], 0)
	}
	rerun := func() error {
		_, err := sim.SimulateStream(context.Background(), w.stream(), w.cfg, sim.Options{})
		return err
	}
	same, err := ls.traceCell(cell, "0", w.cfg, st.Layout(), srcs, newCore, ref, rerun)
	if err != nil {
		return err
	}
	if !same {
		r.fail("traced run's summary differs from the untraced run's")
	}
	ls.sp.end(cell)
	return nil
}

func (w *bfsRoad) close() error {
	w.g = nil
	return nil
}
