package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/exp"
	"droplet/internal/sim"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// fig11 is the Fig. 11 speedup table at quick scale over two registry
// benchmarks, on a fresh experiment suite with two workers. PR-road and
// BFS-road are the cheapest benchmarks of the registry and cost about the
// same, so each worker takes one: a table takes about 0.5 s and a run
// holds about twenty. Any table with a skewed registry graph took 2.5 s
// or more, too few per run for a steady fastest tenth. Its inputs are the
// registry's fixed graphs, so the seed does not change them.
type fig11 struct {
	benches   []workload.Benchmark
	jobs      int
	graphTime time.Duration
	first     []byte
}

func newFig11(cfg Config) *fig11 {
	w := &fig11{jobs: 2, benches: []workload.Benchmark{
		{Algo: workload.PR, Dataset: "road"},
		{Algo: workload.BFS, Dataset: "road"},
	}}
	if cfg.Toy {
		w.benches = w.benches[1:2]
	}
	return w
}

// setup builds the benchmarks' graphs. The last build goes through the
// registry's graph cache, which the tables then read; earlier builds call
// the generators directly, so every build does the same work.
func (w *fig11) setup(_ *runner, last bool) error {
	t0 := time.Now()
	built := make(map[string]bool)
	for _, b := range w.benches {
		weighted := b.Algo.Weighted()
		key := fmt.Sprint(b.Dataset, weighted)
		if built[key] {
			continue
		}
		built[key] = true
		if last {
			if _, err := workload.Graph(b.Dataset, workload.Quick, weighted); err != nil {
				return err
			}
			continue
		}
		d, err := workload.DatasetByName(b.Dataset)
		if err != nil {
			return err
		}
		if _, err := d.Build(workload.Quick, weighted); err != nil {
			return err
		}
	}
	w.graphTime = time.Since(t0)
	return nil
}

func (w *fig11) pid() int { return os.Getpid() }

// table runs and formats one Fig. 11 table on a fresh suite.
func (w *fig11) table() (*exp.Fig11, []byte, error) {
	s := exp.NewSuite(workload.Quick)
	s.Jobs = w.jobs
	s.Benchmarks = w.benches
	f, err := exp.RunFig11(s)
	if err != nil {
		return nil, nil, err
	}
	return f, []byte(f.Format()), nil
}

func (w *fig11) check(r *runner, text []byte) {
	if w.first == nil {
		w.first = text
		r.checkPinned(text)
		return
	}
	if !bytes.Equal(text, w.first) {
		r.fail("table differs between repetitions")
	}
}

// measure times whole tables.
func (w *fig11) measure(r *runner) error {
	for r.more() {
		t0 := time.Now()
		_, text, err := w.table()
		if err != nil {
			return err
		}
		r.op(time.Since(t0))
		w.check(r, text)
	}
	return nil
}

// traced times one table the scheduler's way, then the same cells one at
// a time through the layers' own entry points (workload.GenerateTrace,
// sim.Run), checking every cell's speedup against the table's, and runs
// the first benchmark's DROPLET cell on the traced machine.
func (w *fig11) traced(r *runner, ls *layers) error {
	ls.graph, ls.jobs = w.graphTime, w.jobs
	var f *exp.Fig11
	d, err := ls.sp.timed("exp.table", "", 0, func() (err error) {
		var text []byte
		f, text, err = w.table()
		if err == nil {
			w.check(r, text)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.op(d)
	ls.wall = d

	// The table's configurations, in the registry's order.
	kinds := []core.PrefetcherKind{core.NoPrefetch}
	for _, k := range core.AllKinds {
		if _, ok := f.Rows[0].Speedup[k.String()]; ok {
			kinds = append(kinds, k)
		}
	}
	for bi, b := range w.benches {
		var tr *trace.Trace
		gen, err := ls.sp.timed("trace.generate", b.String(), 0, func() (err error) {
			tr, err = workload.GenerateTrace(b, workload.Quick, 0)
			return err
		})
		if err != nil {
			return err
		}
		ls.traceGen += gen
		ls.traceEvents += tr.Events()
		ls.work += gen
		var base *sim.Result
		for _, k := range kinds {
			res, err := w.tracedCell(r, ls, bi == 0 && k == core.DROPLET, b, k, tr)
			if err != nil {
				return err
			}
			if k == core.NoPrefetch {
				base = res
				continue
			}
			if got, want := res.Speedup(base), f.Rows[bi].Speedup[k.String()]; got != want {
				r.fail("%s/%v: speedup %v run alone, %v in the table", b, k, got, want)
			}
		}
	}
	return nil
}

// tracedCell runs one table cell alone, timing its request envelope and
// simulation, and re-runs it on the traced machine when traceIt is set.
func (w *fig11) tracedCell(r *runner, ls *layers, traceIt bool, b workload.Benchmark, k core.PrefetcherKind, tr *trace.Trace) (*sim.Result, error) {
	id := fmt.Sprintf("%v/%v", b, k)
	cell := ls.sp.begin("cell", id, 0)
	defer ls.sp.end(cell)
	q, hash, err := ls.decodeRequest(cell, id, registryBody(b, workload.Quick, k))
	if err != nil {
		return nil, err
	}
	cfg := exp.Machine(workload.Quick)
	cfg.Prefetcher = k
	var res *sim.Result
	d, err := ls.sp.timed("sim.run", id, cell, func() (err error) {
		res, err = sim.Run(tr, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.op(d)
	ls.simRuns = append(ls.simRuns, millis(d))
	ls.work += d
	if _, err := ls.encodeResponse(cell, id, q, hash, res); err != nil {
		return nil, err
	}
	if traceIt {
		newCore := func(i int, port cpu.MemPort) *cpu.Core { return cpu.NewCore(i, cfg.CPU, port, tr.PerCore[i]) }
		rerun := func() error {
			_, err := sim.Run(tr, cfg)
			return err
		}
		same, err := ls.traceCell(cell, id, cfg, tr.Layout, nil, newCore, res, rerun)
		if err != nil {
			return nil, err
		}
		if !same {
			r.fail("%s: traced run's summary differs from the untraced run's", id)
		}
	}
	return res, nil
}

func (w *fig11) close() error { return nil }
