package trace

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"droplet/internal/mem"
)

// TestBarrierRespectsBudget covers the budget-exhausted-at-barrier edge: a
// barrier needs one stored event per core, and when the remaining budget
// cannot hold all of them the trace must truncate without emitting any —
// a partial barrier would deadlock the simulated cores, and overshooting
// the cap made Events() exceed the configured budget.
func TestBarrierRespectsBudget(t *testing.T) {
	tr, lateDep := materialize(nil, 2, 3, func(b Sink) int32 {
		if idx := b.Load(0, mem.Addr(0x40), mem.Structure, NoDep); idx != 0 {
			t.Fatalf("first load index = %d, want 0", idx)
		}
		// stored=1, budget=3: the 2-core barrier fits exactly (1+2 == 3).
		b.Barrier()
		// stored=3: another barrier would need 2 more events — must
		// truncate all-or-nothing, emitting on neither core.
		b.Barrier()
		// After truncation, further emission is a no-op but instruction
		// accounting continues (results stay exact).
		b.Compute(1, 5)
		return b.Load(1, mem.Addr(0x80), mem.Property, NoDep)
	})

	if !tr.Truncated {
		t.Error("trace not marked truncated")
	}
	if got := tr.Events(); got != 3 {
		t.Errorf("stored events = %d, want exactly the budget 3", got)
	}
	if n0, n1 := len(tr.PerCore[0]), len(tr.PerCore[1]); n0 != 2 || n1 != 1 {
		t.Fatalf("per-core events = %d/%d, want 2/1 (the fitting barrier on both, no partial one)", n0, n1)
	}
	for c, stream := range tr.PerCore {
		if last := stream[len(stream)-1]; last.Kind != KindBarrier {
			t.Errorf("core %d tail = %v, want the in-budget barrier", c, last.Kind)
		}
	}
	if lateDep != NoDep {
		t.Errorf("post-truncation load returned index %d, want NoDep", lateDep)
	}
	// Two loads and the five post-truncation compute instructions.
	if tr.Instructions != 7 {
		t.Errorf("instructions = %d, want 7", tr.Instructions)
	}
}

// TestCountingPassStopsAtBudget: the counting pass ends at the first
// event the budget refuses, since nothing after it is stored, while the
// filling pass runs the emit body to its end, so results and the
// instruction count stay exact. With no budget both passes run it whole.
func TestCountingPassStopsAtBudget(t *testing.T) {
	const loads = 100
	for _, tc := range []struct {
		budget int64
		want   []int
	}{
		{5, []int{5, loads}},
		{0, []int{loads, loads}},
	} {
		var reached []int
		tr, _ := materialize(nil, 2, tc.budget, func(b Sink) struct{} {
			run := len(reached)
			reached = append(reached, 0)
			for i := range loads {
				b.Compute(i%2, 1)
				b.Load(i%2, mem.LineAddrOf(i), mem.Property, NoDep)
				reached[run]++
			}
			return struct{}{}
		})
		if !slices.Equal(reached, tc.want) {
			t.Errorf("budget %d: runs reached %v loads, want %v", tc.budget, reached, tc.want)
		}
		if want := tc.want[0]; tr.Events() != int64(want) {
			t.Errorf("budget %d: stored %d events, want %d", tc.budget, tr.Events(), want)
		}
		if tr.Truncated != (tc.budget > 0) {
			t.Errorf("budget %d: Truncated = %v", tc.budget, tr.Truncated)
		}
		if tr.Instructions != 2*loads {
			t.Errorf("budget %d: instructions = %d, want %d", tc.budget, tr.Instructions, 2*loads)
		}
	}
}

// TestMaterializeRunsMustAgree: an emit body whose second run emits
// more, or fewer, events on a core than its first panics and names the
// core, instead of leaving a short or overflowing stream.
func TestMaterializeRunsMustAgree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra int // events core 1 emits on the second run beyond the first's
	}{
		{"more", 1},
		{"fewer", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "core 1 ") {
					t.Errorf("panic %q, want one naming core 1", msg)
				}
			}()
			runs := 0
			materialize(nil, 2, 0, func(b Sink) struct{} {
				runs++
				n := 3
				if runs == 2 {
					n += tc.extra
				}
				b.Load(0, mem.Addr(0x40), mem.Structure, NoDep)
				for range n {
					b.Store(1, mem.Addr(0x80), mem.Property, NoDep)
				}
				return struct{}{}
			})
		})
	}
}

// TestMaterializeAllocation: the counting pass stores nothing and the
// filling pass writes every event straight into one array of exactly the
// trace's length, so building a trace allocates about its event bytes
// once. Filling fixed-size chunks and copying them into that array
// allocated about twice as much, and growing each core's slice by append
// more than five times.
func TestMaterializeAllocation(t *testing.T) {
	const loads = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, _ := materialize(nil, 4, 0, func(b Sink) struct{} {
		for i := range loads {
			// Cores 0..3 get 1/2, 1/4, 1/8 and 1/8 of the loads.
			c := 0
			switch {
			case i%8 == 7:
				c = 3
			case i%8 == 6:
				c = 2
			case i%8 >= 4:
				c = 1
			}
			b.Load(c, mem.LineAddrOf(i), mem.Property, NoDep)
		}
		b.Barrier()
		return struct{}{}
	})
	runtime.ReadMemStats(&after)

	if got := tr.Events(); got != loads+4 {
		t.Fatalf("stored events = %d, want %d", got, loads+4)
	}
	eventBytes := float64(tr.Events()) * float64(unsafe.Sizeof(Event{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / eventBytes
	t.Logf("allocated %.3fx the trace's %.0f event bytes", ratio, eventBytes)
	if ratio > 1.1 {
		t.Errorf("building the trace allocated %.2fx its event bytes, want at most 1.1x", ratio)
	}
}

// TestBuildStreamsAreDisjoint: each core's stream is a capacity-clipped
// window of one array, holding its events in emission order, so
// appending to one core's stream cannot overwrite the next core's
// events; a core with no events keeps a nil stream; and two runs of one
// emit body build equal traces.
func TestBuildStreamsAreDisjoint(t *testing.T) {
	emit := func(b Sink) struct{} {
		for i := range 3*4096 + 5 {
			b.Load(i%2, mem.LineAddrOf(i), mem.Structure, NoDep)
		}
		return struct{}{}
	}
	tr, _ := materialize(nil, 3, 0, emit)

	if tr.PerCore[2] != nil {
		t.Errorf("core 2 emitted nothing but has a %d-event stream", len(tr.PerCore[2]))
	}
	for c, stream := range tr.PerCore[:2] {
		if cap(stream) != len(stream) {
			t.Errorf("core %d: cap %d != len %d", c, cap(stream), len(stream))
		}
		for k, ev := range stream {
			if want := mem.LineAddrOf(2*k + c); ev.Addr != want {
				t.Fatalf("core %d event %d: addr %#x, want %#x", c, k, ev.Addr, want)
			}
		}
	}

	next := slices.Clone(tr.PerCore[1])
	grown := append(tr.PerCore[0], Event{Addr: 1, Dep: NoDep, Kind: KindStore})
	if &grown[0] == &tr.PerCore[0][0] {
		t.Error("appending to core 0's stream did not reallocate it")
	}
	if !slices.Equal(tr.PerCore[1], next) {
		t.Error("appending to core 0's stream changed core 1's events")
	}
	if again, _ := materialize(nil, 3, 0, emit); !reflect.DeepEqual(again, tr) {
		t.Error("a second materialization of the same emit body differs from the first")
	}
}
