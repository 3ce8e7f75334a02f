package prefetch

import "droplet/internal/mem"

// StreamerConfig parameterizes the stream prefetchers (Table V: FDP-style
// streamer per section 2.1 of Srinath et al., prefetch distance 16,
// 64 streams, stops at page boundary).
type StreamerConfig struct {
	// Streams is the number of concurrent stream trackers.
	Streams int
	// Distance is how many lines ahead of the latest access to prefetch.
	Distance int
	// Degree caps the lines issued per triggering access.
	Degree int
	// DataAware restricts training to structure-bit accesses and routes
	// prefetches through the L3 request queue with the C-bit set
	// (DROPLET's streamer, Fig. 9(b)); it also accepts L2 structure hits
	// as training feedback.
	DataAware bool
	// FillL1 brings prefetches into the L1 as well (monoDROPLETL1).
	FillL1 bool
}

// DefaultStreamerConfig returns the Table V streamer parameters.
func DefaultStreamerConfig() StreamerConfig {
	return StreamerConfig{Streams: 64, Distance: 16, Degree: 4}
}

// tracker follows one page-bounded access stream.
type tracker struct {
	page     uint64 // page number being tracked
	lastLine int64  //droplet:addr line
	dir      int64  // +1 / -1, 0 while undetermined
	confirms int    // misses seen agreeing with dir
	frontier int64  //droplet:addr line
	active   bool
	lru      uint64
	core     int
}

const linesPerPage = mem.PageSize / mem.LineSize

// Streamer is a multi-stream, page-bounded L2 stream prefetcher. A tracker
// allocates on the first miss to an untracked page, trains on two further
// accesses establishing a direction, and then runs a prefetch frontier up
// to Distance lines ahead of the demand stream.
type Streamer struct {
	L2Local
	cfg      StreamerConfig
	trackers []tracker
	tick     uint64

	// Stats.
	Allocations          uint64
	Issued               uint64
	RejectedNonStructure uint64
}

// NewStreamer builds a streamer; invalid configs panic.
func NewStreamer(cfg StreamerConfig) *Streamer {
	if cfg.Streams < 1 || cfg.Distance < 1 || cfg.Degree < 1 {
		panic("prefetch: streamer needs positive streams, distance, degree")
	}
	return &Streamer{cfg: cfg, trackers: make([]tracker, cfg.Streams)}
}

// Name implements Engine.
func (s *Streamer) Name() string {
	if s.cfg.DataAware {
		return "dastream"
	}
	return "stream"
}

// Observe implements Engine.
//
//droplet:hotpath
func (s *Streamer) Observe(ev AccessInfo, reqs []Req) []Req {
	// The conventional streamer snoops every L1-miss address in the L2
	// request queue (Fig. 9(a)); the data-aware variant admits only
	// structure-bit requests, with L2 hits on structure lines serving as
	// feedback (Fig. 9(b) ❷).
	if s.cfg.DataAware && !ev.StructureBit {
		s.RejectedNonStructure++
		return reqs
	}

	page := ev.VAddr >> mem.PageShift
	lineIdx := int64(ev.VAddr>>mem.LineShift) & (linesPerPage - 1)
	s.tick++

	tr := s.find(page)
	if tr == nil {
		tr = s.allocate(page, ev.Core)
		tr.lastLine = lineIdx
		tr.lru = s.tick
		return reqs
	}
	tr.lru = s.tick

	if !tr.active {
		switch {
		case tr.dir == 0:
			if lineIdx == tr.lastLine {
				return reqs
			}
			if lineIdx > tr.lastLine {
				tr.dir = 1
			} else {
				tr.dir = -1
			}
			tr.confirms = 1
		case (lineIdx-tr.lastLine)*tr.dir > 0:
			tr.confirms++
		default:
			// Direction contradicted during training: restart.
			tr.dir = 0
			tr.confirms = 0
		}
		tr.lastLine = lineIdx
		// Two additional miss addresses confirm a stream (section 2.1
		// of the FDP paper).
		if tr.confirms >= 2 {
			tr.active = true
			tr.frontier = lineIdx + tr.dir
		}
		if !tr.active {
			return reqs
		}
	}
	tr.lastLine = lineIdx

	// Advance the frontier to Distance ahead of the demand access,
	// bounded by the page and the per-access Degree.
	target := lineIdx + tr.dir*int64(s.cfg.Distance)
	issued := 0
	for issued < s.cfg.Degree && (tr.frontier-target)*tr.dir <= 0 {
		if tr.frontier < 0 || tr.frontier >= linesPerPage {
			break // stops at page boundary
		}
		addr := (page << mem.PageShift) | uint64(tr.frontier<<mem.LineShift)
		reqs = append(reqs, Req{
			Core:       ev.Core,
			VAddr:      addr,
			CBit:       s.cfg.DataAware,
			ViaL3Queue: s.cfg.DataAware,
			FillL1:     s.cfg.FillL1,
		})
		s.Issued++
		tr.frontier += tr.dir
		issued++
	}
	return reqs
}

func (s *Streamer) find(page uint64) *tracker {
	for i := range s.trackers {
		if t := &s.trackers[i]; t.page == page && t.lru != 0 {
			return t
		}
	}
	return nil
}

func (s *Streamer) allocate(page uint64, core int) *tracker {
	s.Allocations++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range s.trackers {
		if s.trackers[i].lru == 0 {
			victim = i
			break
		}
		if s.trackers[i].lru < oldest {
			oldest = s.trackers[i].lru
			victim = i
		}
	}
	s.trackers[victim] = tracker{page: page, core: core}
	return &s.trackers[victim]
}

// ActiveTrackers returns how many trackers are in streaming state — the
// utilization signal behind the paper's "wasteful trackers" argument
// (Section V-B1).
func (s *Streamer) ActiveTrackers() int {
	n := 0
	for i := range s.trackers {
		if s.trackers[i].active {
			n++
		}
	}
	return n
}
