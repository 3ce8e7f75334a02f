package bench

import (
	"time"

	"droplet/internal/cache"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/prefetch"
	"droplet/internal/sim"
)

// windowSize is the number of core→hierarchy accesses a traced run
// records for replay.
const windowSize = 1 << 20

// access is one recorded core→hierarchy access and the level that
// serviced it.
type access struct {
	vaddr mem.Addr //droplet:addr byte
	now   int64
	core  int32
	dtype mem.DataType
	level memsys.Level
	write bool
}

// window records a contiguous run of accesses starting at the midpoint of
// a run, when the caches have left their cold start behind.
type window struct {
	start int64 // index of the first recorded access
	seen  int64
	recs  []access
}

// newWindow sizes a window for a run of total accesses: up to size
// accesses starting at total/2, never past the end.
func newWindow(total, size int64) *window {
	start := total / 2
	n := max(0, min(size, total-start))
	return &window{start: start, recs: make([]access, 0, n)}
}

//droplet:addr vaddr byte
func (w *window) add(core int, vaddr mem.Addr, dt mem.DataType, write bool, now int64, lvl memsys.Level) {
	i := w.seen
	w.seen++
	if i < w.start || len(w.recs) == cap(w.recs) {
		return
	}
	w.recs = append(w.recs, access{vaddr: vaddr, now: now, core: int32(core), dtype: dt, level: lvl, write: write})
}

// replayCost is the host time per call of each layer, measured by
// replaying a recorded window into standalone instances with no per-call
// timer. A layer that the window never reaches costs 0.
type replayCost struct {
	l1, l2, llc, dram, streamer time.Duration
}

// physical is one recorded access translated for the replays.
type physical struct {
	access
	paddr     mem.Addr //droplet:addr byte
	vline     mem.Addr //droplet:addr byte
	structure bool
}

// replay feeds the window into fresh caches, a memory controller and
// streamers built from cfg: every access into a per-core L1, the L1-miss
// subset into per-core L2s and streamers, the L2-miss subset into an LLC
// and the DRAM-serviced subset into the controller. Caches fill on a miss
// as the hierarchy does; the replay caches start empty.
func replay(w *window, cfg sim.Config, as *mem.AddressSpace) replayCost {
	all := make([]physical, 0, len(w.recs))
	for _, a := range w.recs {
		vline := mem.LineAddr(a.vaddr)
		pte, _ := as.Lookup(vline)
		all = append(all, physical{
			access:    a,
			paddr:     pte.PPN<<mem.PageShift | (vline & (mem.PageSize - 1)),
			vline:     vline,
			structure: pte.Structure,
		})
	}
	below := func(l memsys.Level) []physical {
		var out []physical
		for _, p := range all {
			if p.level >= l {
				out = append(out, p)
			}
		}
		return out
	}
	var rc replayCost
	rc.l1 = replayCaches(all, cfg.Cores, cfg.L1)
	l1miss := below(memsys.LevelL2)
	if !cfg.NoL2 {
		rc.l2 = replayCaches(l1miss, cfg.Cores, cfg.L2)
	}
	rc.llc = replayCaches(below(memsys.LevelL3), 1, cfg.LLC)
	rc.dram = replayDRAM(below(memsys.LevelDRAM), cfg.DRAM)
	rc.streamer = replayStreamer(l1miss, cfg)
	return rc
}

// perCall returns the mean time per element of an n-element loop that
// took d.
func perCall(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return d / time.Duration(n)
}

// replayCaches replays recs into n caches of cfg (recs route by core when
// n > 1), filling on every miss.
func replayCaches(recs []physical, n int, cfg cache.Config) time.Duration {
	cs := make([]*cache.Cache, n)
	for i := range cs {
		cs[i] = cache.New(cfg)
	}
	t0 := time.Now()
	for i := range recs {
		p := &recs[i]
		c := cs[0]
		if n > 1 {
			c = cs[p.core]
		}
		if _, hit := c.Access(p.paddr, p.dtype, p.write, p.now); !hit {
			c.Fill(p.paddr, p.dtype, p.now, false)
		}
	}
	return perCall(time.Since(t0), len(recs))
}

// replayDRAM replays recs as demand reads and writes into one controller.
func replayDRAM(recs []physical, cfg dram.Config) time.Duration {
	mc := dram.NewMemoryController(cfg)
	t0 := time.Now()
	for i := range recs {
		p := &recs[i]
		mc.Access(dram.Request{Addr: p.paddr, VAddr: p.vline, CoreID: int(p.core), DType: p.dtype}, p.now)
	}
	return perCall(time.Since(t0), len(recs))
}

// replayStreamer replays the L1-miss stream into per-core data-aware
// streamers (DROPLET's L2 engine), the way memsys feeds L2 engines.
func replayStreamer(recs []physical, cfg sim.Config) time.Duration {
	scfg := cfg.Prefetch.Streamer
	scfg.DataAware = true
	ss := make([]*prefetch.Streamer, cfg.Cores)
	for i := range ss {
		ss[i] = prefetch.NewStreamer(scfg)
	}
	buf := make([]prefetch.Req, 0, 64)
	t0 := time.Now()
	for i := range recs {
		p := &recs[i]
		buf = ss[p.core].Observe(prefetch.AccessInfo{
			Core:         int(p.core),
			VAddr:        p.vline,
			PAddr:        p.paddr,
			DType:        p.dtype,
			StructureBit: p.structure,
			L2Hit:        p.level == memsys.LevelL2,
			Write:        p.write,
			Now:          p.now,
		}, buf[:0])
	}
	return perCall(time.Since(t0), len(recs))
}
