package prefetch

import "droplet/internal/mem"

// GHBConfig parameterizes the G/DC global history buffer prefetcher
// (Table V: 512-entry index table, 512-entry buffer).
type GHBConfig struct {
	BufferSize int // circular global history buffer entries
	IndexSize  int // index table entries
	Degree     int // prefetches issued per trigger
}

// DefaultGHBConfig returns the Table V parameters.
func DefaultGHBConfig() GHBConfig {
	return GHBConfig{BufferSize: 512, IndexSize: 512, Degree: 4}
}

type ghbEntry struct {
	lineAddr uint64 //droplet:addr line
	prevIdx  int32  // previous entry with the same key, -1 if none
	seq      uint64
}

// GHB is a Global/Delta-Correlation prefetcher (Nesbit & Smith). Every L2
// training miss appends its line address to a circular global buffer; the
// index table maps the last two global deltas to the most recent buffer
// position where that delta pair occurred, and prediction replays the
// deltas that followed it.
type GHB struct {
	L2Local
	cfg   GHBConfig
	buf   []ghbEntry
	head  int // next write position
	count int
	seq   uint64
	index map[uint64]int32 // delta-pair key → newest buffer index
	// keyLRU is a FIFO ring of index-table keys (insertion order for the
	// bounded table); keyHead/keyLen track the live window.
	keyLRU  []uint64
	keyHead int
	keyLen  int
	last    uint64 // previous miss line address
	last2   int64  // previous delta
	warm    int    // misses observed

	Issued uint64
}

// NewGHB builds a G/DC prefetcher; invalid configs panic.
func NewGHB(cfg GHBConfig) *GHB {
	if cfg.BufferSize < 4 || cfg.IndexSize < 4 || cfg.Degree < 1 {
		panic("prefetch: bad GHB config")
	}
	return &GHB{
		cfg:    cfg,
		buf:    make([]ghbEntry, cfg.BufferSize),
		index:  make(map[uint64]int32, cfg.IndexSize),
		keyLRU: make([]uint64, cfg.IndexSize),
	}
}

// Name implements Engine.
func (g *GHB) Name() string { return "ghb" }

func deltaKey(d1, d2 int64) uint64 {
	// Fold two signed deltas into one key; collisions are acceptable (a
	// real index table is hashed too).
	return uint64(d1)*0x9e3779b97f4a7c15 ^ uint64(d2)
}

// Observe implements Engine. GHB trains on L2 misses only.
//
//droplet:hotpath
func (g *GHB) Observe(ev AccessInfo, reqs []Req) []Req {
	if ev.L2Hit {
		return reqs
	}
	line := uint64(ev.VAddr >> mem.LineShift)

	if g.warm == 0 {
		g.push(line)
		g.last = line
		g.warm = 1
		return reqs
	}
	d1 := int64(line) - int64(g.last)
	if g.warm == 1 {
		g.push(line)
		g.last2 = d1
		g.last = line
		g.warm = 2
		return reqs
	}

	// Predict: find the newest prior occurrence of (last2, d1) and replay
	// the deltas that followed it.
	key := deltaKey(g.last2, d1)
	if pos, ok := g.index[key]; ok && g.valid(pos) {
		addr := line
		idx := int(pos)
		for issued := 0; issued < g.cfg.Degree; issued++ {
			next := (idx + 1) % g.cfg.BufferSize
			if !g.newerThan(next, idx) {
				break
			}
			d := int64(g.buf[next].lineAddr) - int64(g.buf[idx].lineAddr)
			addr = uint64(int64(addr) + d)
			reqs = append(reqs, Req{Core: ev.Core, VAddr: mem.Addr(addr) << mem.LineShift})
			g.Issued++
			idx = next
		}
	}

	// Train: record this miss and index the (last2, d1) pair at the
	// position of the PREVIOUS miss, so replay starts from it.
	prevPos := int32((g.head - 1 + g.cfg.BufferSize) % g.cfg.BufferSize)
	g.push(line)
	if len(g.index) >= g.cfg.IndexSize {
		// Bounded index table: evict the oldest key.
		oldest := g.keyLRU[g.keyHead]
		g.keyHead = (g.keyHead + 1) % len(g.keyLRU)
		g.keyLen--
		delete(g.index, oldest)
	}
	if _, exists := g.index[key]; !exists {
		g.keyLRU[(g.keyHead+g.keyLen)%len(g.keyLRU)] = key
		g.keyLen++
	}
	g.index[key] = prevPos
	g.last2 = d1
	g.last = line
	return reqs
}

//droplet:addr line line
func (g *GHB) push(line uint64) {
	g.seq++
	g.buf[g.head] = ghbEntry{lineAddr: line, seq: g.seq}
	g.head = (g.head + 1) % g.cfg.BufferSize
	if g.count < g.cfg.BufferSize {
		g.count++
	}
}

// valid reports whether a buffer position still holds a live entry.
func (g *GHB) valid(pos int32) bool {
	return int(pos) < g.cfg.BufferSize && g.buf[pos].seq != 0 &&
		g.seq-g.buf[pos].seq < uint64(g.cfg.BufferSize)
}

// newerThan reports whether buf[a] was written after buf[b] and is live.
func (g *GHB) newerThan(a, b int) bool {
	return g.buf[a].seq > g.buf[b].seq && g.valid(int32(a))
}
