package prefetch

import "droplet/internal/mem"

// VLDPConfig parameterizes the Variable Length Delta Prefetcher
// (Table V: last 64 pages tracked by the DHB, 64-entry OPT, 3 cascaded
// 64-entry DPTs).
type VLDPConfig struct {
	DHBPages  int // pages tracked by the delta history buffer
	OPTSize   int // offset prediction table entries
	DPTSize   int // entries per delta prediction table
	NumDPTs   int // cascade depth (delta-history lengths 1..NumDPTs)
	MaxDegree int // prefetches per trigger
}

// DefaultVLDPConfig returns the Table V parameters.
func DefaultVLDPConfig() VLDPConfig {
	return VLDPConfig{DHBPages: 64, OPTSize: 64, DPTSize: 64, NumDPTs: 3, MaxDegree: 4}
}

// dhbEntry is one page's delta history.
type dhbEntry struct {
	page     uint64
	lastLine int64   //droplet:addr line
	deltas   []int64 // most recent last (newest at the end)
	lru      uint64
	used     bool
}

// lruTable is a small bounded map with FIFO-ish eviction, standing in for
// a set-associative SRAM table. The eviction order lives in a fixed ring
// buffer so steady-state inserts never allocate.
type lruTable struct {
	m     map[uint64]int64
	order []uint64 // FIFO ring of keys
	head  int
	n     int
}

func newLRUTable(capacity int) *lruTable {
	return &lruTable{m: make(map[uint64]int64, capacity), order: make([]uint64, capacity)}
}

func (t *lruTable) get(k uint64) (int64, bool) {
	v, ok := t.m[k]
	return v, ok
}

func (t *lruTable) put(k uint64, v int64) {
	if _, ok := t.m[k]; !ok {
		if len(t.m) >= len(t.order) {
			oldest := t.order[t.head]
			t.head = (t.head + 1) % len(t.order)
			t.n--
			delete(t.m, oldest)
		}
		t.order[(t.head+t.n)%len(t.order)] = k
		t.n++
	}
	t.m[k] = v
}

// VLDP is the Variable Length Delta Prefetcher (Shevgoor et al.): per-page
// delta histories feed a cascade of delta prediction tables keyed by
// progressively longer delta sequences; the longest matching history wins.
// The offset prediction table issues a first prefetch on the initial
// access to a page.
type VLDP struct {
	L2Local
	cfg  VLDPConfig
	dhb  []dhbEntry
	opt  *lruTable   // first line offset → predicted first delta
	dpts []*lruTable // dpts[i] keyed by (i+1)-delta history
	tick uint64
	hist []int64 // prediction-walk scratch, reused across accesses

	Issued uint64
}

// NewVLDP builds a VLDP; invalid configs panic.
func NewVLDP(cfg VLDPConfig) *VLDP {
	if cfg.DHBPages < 1 || cfg.OPTSize < 1 || cfg.DPTSize < 1 || cfg.NumDPTs < 1 || cfg.MaxDegree < 1 {
		panic("prefetch: bad VLDP config")
	}
	v := &VLDP{
		cfg:  cfg,
		dhb:  make([]dhbEntry, cfg.DHBPages),
		opt:  newLRUTable(cfg.OPTSize),
		hist: make([]int64, 0, cfg.NumDPTs),
	}
	for i := range v.dhb {
		v.dhb[i].deltas = make([]int64, 0, cfg.NumDPTs)
	}
	for i := 0; i < cfg.NumDPTs; i++ {
		v.dpts = append(v.dpts, newLRUTable(cfg.DPTSize))
	}
	return v
}

// Name implements Engine.
func (v *VLDP) Name() string { return "vldp" }

// histKey folds the most recent n deltas into a table key.
func histKey(deltas []int64, n int) uint64 {
	k := uint64(n) * 0x2545f4914f6cdd1d
	for _, d := range deltas[len(deltas)-n:] {
		k = k*0x100000001b3 ^ uint64(d)
	}
	return k
}

// Observe implements Engine. VLDP trains on L2 misses.
//
//droplet:hotpath
func (v *VLDP) Observe(ev AccessInfo, reqs []Req) []Req {
	if ev.L2Hit {
		return reqs
	}
	page := ev.VAddr >> mem.PageShift
	lineIdx := int64(ev.VAddr>>mem.LineShift) & (linesPerPage - 1)
	v.tick++

	e := v.findDHB(page)
	if e == nil {
		e = v.allocDHB(page)
		e.lastLine = lineIdx
		e.lru = v.tick
		// First touch of the page: consult the OPT.
		if d, ok := v.opt.get(uint64(lineIdx)); ok {
			reqs = v.emit(reqs, ev.Core, page, lineIdx+d)
		}
		return reqs
	}
	e.lru = v.tick
	delta := lineIdx - e.lastLine
	if delta == 0 {
		return reqs
	}

	// Train the OPT with the first observed delta of this page visit and
	// the DPT cascade with every history length.
	if len(e.deltas) == 0 {
		v.opt.put(uint64(e.lastLine), delta)
	}
	for n := 1; n <= v.cfg.NumDPTs && n <= len(e.deltas); n++ {
		v.dpts[n-1].put(histKey(e.deltas, n), delta)
	}
	e.deltas = shiftIn(e.deltas, delta, v.cfg.NumDPTs)
	e.lastLine = lineIdx

	// Predict: walk forward, always preferring the longest matching
	// history (the paper's cascade priority). The walk reuses the scratch
	// buffer so prediction never allocates.
	hist := append(v.hist[:0], e.deltas...)
	cur := lineIdx
	for issued := 0; issued < v.cfg.MaxDegree; issued++ {
		d, ok := v.predict(hist)
		if !ok {
			break
		}
		cur += d
		if cur < 0 || cur >= linesPerPage {
			break // VLDP predictions stay within the page
		}
		reqs = v.emit(reqs, ev.Core, page, cur)
		hist = shiftIn(hist, d, v.cfg.NumDPTs)
	}
	v.hist = hist[:0]
	return reqs
}

// shiftIn appends d to s keeping only the newest maxLen entries, shifting
// in place so the backing array (preallocated with cap maxLen) is reused.
func shiftIn(s []int64, d int64, maxLen int) []int64 {
	if len(s) < maxLen {
		return append(s, d)
	}
	copy(s, s[len(s)-maxLen+1:])
	s = s[:maxLen]
	s[maxLen-1] = d
	return s
}

func (v *VLDP) predict(hist []int64) (int64, bool) {
	for n := min(v.cfg.NumDPTs, len(hist)); n >= 1; n-- {
		if d, ok := v.dpts[n-1].get(histKey(hist, n)); ok {
			return d, true
		}
	}
	return 0, false
}

//droplet:addr lineIdx line
func (v *VLDP) emit(reqs []Req, core int, page uint64, lineIdx int64) []Req {
	addr := (page << mem.PageShift) | uint64(lineIdx<<mem.LineShift)
	v.Issued++
	return append(reqs, Req{Core: core, VAddr: addr})
}

func (v *VLDP) findDHB(page uint64) *dhbEntry {
	for i := range v.dhb {
		if e := &v.dhb[i]; e.used && e.page == page {
			return e
		}
	}
	return nil
}

func (v *VLDP) allocDHB(page uint64) *dhbEntry {
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range v.dhb {
		if !v.dhb[i].used {
			victim = i
			oldest = 0
			break
		}
		if v.dhb[i].lru < oldest {
			oldest = v.dhb[i].lru
			victim = i
		}
	}
	e := &v.dhb[victim]
	*e = dhbEntry{page: page, used: true, deltas: e.deltas[:0]}
	return e
}
