package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
)

// layers accumulates what one traced pass measures, layer by layer.
// Stage times come from spans around calls into each layer's public
// functions; the per-call split inside a simulation comes from the traced
// machine and its replay window.
type layers struct {
	sp *spans
	tc timerCost

	graph       time.Duration // graph construction
	traceGen    time.Duration // materialized trace generation
	traceEvents int64         // events in materialized traces
	simRuns     []float64     // untraced simulate time per cell, ms
	work        time.Duration // Σ per-cell stage time, cells run one at a time
	wall        time.Duration // untraced wall of the same cells run the workload's way
	jobs        int           // workers the workload's own run uses
	decode      []float64     // per-cell request decode, µs
	hash        []float64     // per-cell request hash, µs
	encode      []float64     // per-cell response encode, µs

	// The traced cell: its machine, host-time split, untraced wall time,
	// replay costs and result.
	m        *machine
	split    split
	refWall  time.Duration
	replayed replayCost
	res      *sim.Result
}

// resultBody mirrors the response body droplet-serve encodes for a
// completed simulation, so in-process results compare byte for byte with
// the service's.
type resultBody struct {
	Version int             `json:"version"`
	Hash    string          `json:"hash"`
	Request json.RawMessage `json:"request"`
	Summary sim.Summary     `json:"summary"`
}

// encodeBody encodes the response body for request q and its result.
func encodeBody(q simreq.Request, hash string, sum sim.Summary) ([]byte, error) {
	canon, err := q.Canonical()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(resultBody{Version: simreq.Version, Hash: hash, Request: canon, Summary: sum})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// summaryJSON is the digest form of a result.
func summaryJSON(r *sim.Result) []byte {
	b, err := json.Marshal(r.Summarize())
	if err != nil {
		panic(err) // a Summary is plain numbers and strings
	}
	return b
}

// accesses is the number of core→hierarchy accesses a run made.
func accesses(r *sim.Result) int64 {
	var n int64
	for _, s := range r.CoreStats {
		n += s.Loads + s.Stores
	}
	return n
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decodeRequest times decoding and hashing the request body of one cell,
// as the service does before it simulates.
func (ls *layers) decodeRequest(parent int, id string, body []byte) (simreq.Request, string, error) {
	var q simreq.Request
	d, err := ls.sp.timed("simreq.decode", id, parent, func() (err error) {
		q, err = simreq.Decode(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return q, "", err
	}
	var hash string
	h, err := ls.sp.timed("simreq.hash", id, parent, func() (err error) {
		hash, err = q.Hash()
		return err
	})
	ls.decode = append(ls.decode, micros(d))
	ls.hash = append(ls.hash, micros(h))
	ls.work += d + h
	return q, hash, err
}

// encodeResponse times encoding one cell's response body.
func (ls *layers) encodeResponse(parent int, id string, q simreq.Request, hash string, res *sim.Result) ([]byte, error) {
	var body []byte
	d, err := ls.sp.timed("serve.encode", id, parent, func() (err error) {
		body, err = encodeBody(q, hash, res.Summarize())
		return err
	})
	ls.encode = append(ls.encode, micros(d))
	ls.work += d
	return body, err
}

// traceCell re-runs one simulation on the traced machine and reports
// whether its result equals ref, the untraced result. It then times
// rerun, the same simulation untraced once more, so the tracing overhead
// compares two runs that both find the process's heap already grown, and
// replays the traced run's access window.
func (ls *layers) traceCell(parent int, id string, cfg sim.Config, lay *trace.Layout, srcs []*timedSource, newCore newCoreFunc, ref *sim.Result, rerun func() error) (bool, error) {
	win := newWindow(accesses(ref), windowSize)
	var m *machine
	if _, err := ls.sp.timed("sim.build", id, parent, func() (err error) {
		m, err = newMachine(cfg, lay, ls.tc, win, srcs, newCore)
		return err
	}); err != nil {
		return false, err
	}
	ls.sp.timed("sim.drive", id, parent, func() error { m.drive(); return nil })
	s, err := m.split()
	if err != nil {
		return false, err
	}
	refWall, err := ls.sp.timed("sim.run.untraced", id, parent, rerun)
	if err != nil {
		return false, err
	}
	ls.sp.timed("replay", id, parent, func() error {
		ls.replayed = replay(win, cfg, lay.AS)
		return nil
	})
	ls.m, ls.split, ls.res, ls.refWall = m, s, m.result(), refWall
	return bytes.Equal(summaryJSON(ls.res), summaryJSON(ref)), nil
}

// levelNames are the metric suffixes of the hierarchy levels.
var levelNames = [memsys.NumLevels]string{"l1", "l2", "l3", "dram"}

// metrics returns the per-layer metrics of the pass.
func (ls *layers) metrics() map[string]Metric {
	m, s, rc, res := ls.m, ls.split, ls.replayed, ls.res
	calls := m.port.calls
	events := float64(m.steps)
	perEvent := func(d time.Duration) float64 { return float64(d) / events }
	ns := func(d time.Duration) float64 { return float64(d) }

	out := make(map[string]Metric)
	put := func(name string, v float64, unit string) { out[name] = Metric{Value: v, Unit: unit} }

	put("graph.build_s", ls.graph.Seconds(), "s")
	if m.srcs != nil {
		put("trace.ns_per_event", float64(s.traceWait)/float64(m.traceEvent), "ns")
		put("trace.events", float64(m.traceEvent), "count")
	} else {
		put("trace.ns_per_event", float64(ls.traceGen)/float64(ls.traceEvents), "ns")
		put("trace.events", float64(ls.traceEvents), "count")
	}

	put("sim.build_ms", millis(m.buildWall), "ms")
	put("sim.drive_self_ns_per_event", perEvent(s.driveSelf), "ns")
	put("sim.barriers", float64(m.barriers), "count")
	put("sim.run_ms_p50", median(ls.simRuns), "ms")
	put("sim.run_ms_max", slices.Max(ls.simRuns), "ms")

	put("cpu.step_self_ns_per_event", perEvent(s.stepSelf), "ns")

	for l, name := range levelNames {
		per := 0.0
		if calls[l] > 0 {
			per = float64(s.accessByLevel[l]) / float64(calls[l])
		}
		put("memsys.access_ns."+name, per, "ns")
		put("memsys.access_calls."+name, float64(calls[l]), "count")
	}
	l1miss := calls[memsys.LevelL2] + calls[memsys.LevelL3] + calls[memsys.LevelDRAM]
	l2miss := calls[memsys.LevelL3] + calls[memsys.LevelDRAM]
	covered := rc.l1*time.Duration(m.steps) +
		rc.l2*time.Duration(l1miss) +
		rc.llc*time.Duration(l2miss) +
		rc.dram*time.Duration(calls[memsys.LevelDRAM])
	if len(m.att.Streamers) > 0 {
		covered += rc.streamer * time.Duration(l1miss)
	}
	put("memsys.residual_ns_per_event", perEvent(s.access-covered), "ns")

	put("cache.l1_ns_per_access", ns(rc.l1), "ns")
	put("cache.l2_ns_per_access", ns(rc.l2), "ns")
	put("cache.llc_ns_per_access", ns(rc.llc), "ns")
	put("cache.l2_hit_rate", res.L2HitRate(), "ratio")
	put("cache.llc_mpki", res.LLCMPKI(), "1/kinstr")

	put("dram.ns_per_access", ns(rc.dram), "ns")
	put("dram.bpki", res.BPKI(), "1/kinstr")
	put("dram.bw_util", res.BandwidthUtilization(), "ratio")

	var issued uint64
	for _, v := range res.Hier.Stats().PrefetchIssuedByType {
		issued += v
	}
	accP, _ := res.PrefetchAccuracy(mem.Property)
	accS, _ := res.PrefetchAccuracy(mem.Structure)
	put("prefetch.streamer_ns_per_observe", ns(rc.streamer), "ns")
	put("prefetch.issued", float64(issued), "count")
	put("prefetch.accuracy.property", accP, "ratio")
	put("prefetch.accuracy.structure", accS, "ratio")

	put("exp.work_s", ls.work.Seconds(), "s")
	put("exp.parallel_efficiency", ls.work.Seconds()/(float64(ls.jobs)*ls.wall.Seconds()), "ratio")

	put("simreq.decode_us", median(ls.decode), "us")
	put("simreq.hash_us", median(ls.hash), "us")
	put("serve.encode_us", median(ls.encode), "us")

	put("bench.timer_floor_ns", ns(ls.tc.floor), "ns")
	put("bench.trace_overhead", float64(m.buildWall+m.driveWall)/float64(ls.refWall), "ratio")
	put("bench.unattributed_share", float64(s.unattributed)/float64(s.wall), "ratio")
	return out
}

// logSplit prints the traced cell's host-time split and warns when the
// measured parts leave more than maxUnattributed of the drive wall time
// unexplained, either way.
func (ls *layers) logSplit(w io.Writer) {
	s := ls.split
	share := func(d time.Duration) float64 { return float64(d) / float64(s.wall) }
	fmt.Fprintf(w, "traced drive %.3fs over %d events: drive self %.1f%%, cpu step self %.1f%%, memsys access %.1f%%, trace wait %.1f%%, timers %.1f%%, descheduled %.1f%%, unattributed %.1f%%\n",
		s.wall.Seconds(), ls.m.steps, 100*share(s.driveSelf), 100*share(s.stepSelf), 100*share(s.access), 100*share(s.traceWait), 100*share(s.timers), 100*share(s.descheduled), 100*share(s.unattributed))
	if math.Abs(share(s.unattributed)) > maxUnattributed {
		fmt.Fprintf(w, "warning: the measured parts miss the drive wall time by %.1f%%, more than %.0f%%\n", 100*share(s.unattributed), 100*maxUnattributed)
	}
}
