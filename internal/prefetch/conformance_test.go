package prefetch

import (
	"reflect"
	"testing"

	"droplet/internal/mem"
)

// conformanceCases builds one fresh instance of every engine through the
// given factory set; each invocation must return an independent engine so
// replay comparisons start from identical cold state.
func conformanceCases() []struct {
	name string
	make func() Engine
} {
	// Synthetic scan support for the engines that need workload layout:
	// every structure line holds the same three neighbor IDs.
	const propBase = mem.Addr(0x4000_0000)
	newScan := func() (LineScanner, []PropArray) {
		scan := func(_ mem.Addr, ids []uint32) []uint32 {
			return append(ids, 3, 17, 42)
		}
		props := []PropArray{{Base: propBase, Elem: 8, Count: 1 << 20}}
		return scan, props
	}
	return []struct {
		name string
		make func() Engine
	}{
		{"streamer", func() Engine { return NewStreamer(DefaultStreamerConfig()) }},
		{"adaptive", func() Engine { return NewAdaptiveStreamer(DefaultAdaptiveConfig()) }},
		{"ghb", func() Engine { return NewGHB(DefaultGHBConfig()) }},
		{"vldp", func() Engine { return NewVLDP(DefaultVLDPConfig()) }},
		{"mpp", func() Engine {
			scan, props := newScan()
			as := mem.NewAddressSpace()
			return NewMPP(DefaultMPPConfig(), as, scan, props)
		}},
		{"pickle", func() Engine {
			scan, props := newScan()
			return NewPickle(DefaultPickleConfig(), scan, props)
		}},
	}
}

// conformanceEvents is a deterministic mixed stream: sequential structure
// lines (trains streamers, triggers pickle), strided property lines, and
// the occasional write/hit, across two cores.
func conformanceEvents() []AccessInfo {
	const strBase = mem.Addr(0x1000_0000)
	const propBase = mem.Addr(0x4000_0000)
	evs := make([]AccessInfo, 0, 512)
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 512; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		ev := AccessInfo{
			Core: i & 1,
			Now:  int64(i * 10),
		}
		if i%3 != 2 {
			ev.VAddr = strBase + mem.LineAddrOf(i)
			ev.DType = mem.Structure
			ev.StructureBit = true
		} else {
			ev.VAddr = mem.LineAddr(propBase + mem.Addr(state%(1<<24)))
			ev.DType = mem.Property
		}
		ev.PAddr = ev.VAddr
		ev.L2Hit = state&0xf == 0
		ev.LLCHit = state&0x1f == 0
		ev.Write = state&0x3f == 0
		evs = append(evs, ev)
	}
	return evs
}

// TestEngineConformance pins the Engine contract every implementation
// must honor: a stable non-empty name, one of the three attachment levels,
// deterministic output under replay, the caller-owned scratch-buffer
// convention, and a zero-allocation Observe in steady state.
func TestEngineConformance(t *testing.T) {
	evs := conformanceEvents()
	replay := func(e Engine, buf []Req) [][]Req {
		var out [][]Req
		for _, ev := range evs {
			buf = e.Observe(ev, buf[:0])
			if len(buf) > 0 {
				out = append(out, append([]Req(nil), buf...))
			}
		}
		return out
	}
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.make()
			if e.Name() == "" {
				t.Fatal("empty engine name")
			}
			lvl := e.Level()
			switch lvl {
			case AttachL2, AttachLLC, AttachMC:
			default:
				t.Errorf("invalid level %v", lvl)
			}
			if lvl == AttachMC {
				if _, ok := e.(RefillEngine); !ok {
					t.Error("AttachMC engine must implement RefillEngine")
				}
			}

			// Determinism: two fresh instances replaying the same stream
			// must emit identical request sequences.
			a := replay(tc.make(), make([]Req, 0, 64))
			b := replay(tc.make(), make([]Req, 0, 64))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("replay diverged: %d vs %d non-empty observations", len(a), len(b))
			}

			// Scratch contract: Observe appends to the caller's buffer and
			// returns it — existing elements survive in place.
			sentinel := Req{Core: 99, VAddr: mem.LineAddrOf(0xDEAD)}
			buf := make([]Req, 1, 64)
			buf[0] = sentinel
			for _, ev := range evs[:32] {
				buf = e.Observe(ev, buf)
				if len(buf) < 1 || buf[0] != sentinel {
					t.Fatalf("Observe clobbered the caller-owned buffer prefix: %+v", buf)
				}
			}

			// Zero allocations once warm (the //droplet:hotpath invariant).
			warm := tc.make()
			scratch := make([]Req, 0, 256)
			for _, ev := range evs {
				scratch = warm.Observe(ev, scratch[:0])
			}
			i := 0
			if avg := testing.AllocsPerRun(500, func() {
				scratch = warm.Observe(evs[i%len(evs)], scratch[:0])
				i++
			}); avg != 0 {
				t.Errorf("Observe allocates %.3f objects/op in steady state, want 0", avg)
			}
		})
	}
}
