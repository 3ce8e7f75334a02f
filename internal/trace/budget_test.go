package trace

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"droplet/internal/mem"
)

// TestBarrierRespectsBudget covers the budget-exhausted-at-barrier edge: a
// barrier needs one stored event per core, and when the remaining budget
// cannot hold all of them the builder must truncate without emitting any —
// a partial barrier would deadlock the simulated cores, and overshooting
// the cap made Events() exceed the configured budget.
func TestBarrierRespectsBudget(t *testing.T) {
	b := NewBuilder(nil, 2, 3)

	if idx := b.Load(0, mem.Addr(0x40), mem.Structure, NoDep); idx != 0 {
		t.Fatalf("first load index = %d, want 0", idx)
	}
	// stored=1, budget=3: the 2-core barrier fits exactly (1+2 == 3).
	b.Barrier()
	if b.Done() {
		t.Fatal("builder truncated on a barrier that fits the budget")
	}
	// stored=3: another barrier would need 2 more events — must truncate
	// all-or-nothing, emitting on neither core.
	b.Barrier()
	if !b.Done() {
		t.Fatal("builder not truncated by over-budget barrier")
	}

	tr := b.Build()
	if !tr.Truncated {
		t.Error("trace not marked truncated")
	}
	if got := tr.Events(); got != 3 {
		t.Errorf("stored events = %d, want exactly the budget 3", got)
	}
	if n0, n1 := len(tr.PerCore[0]), len(tr.PerCore[1]); n0 != 2 || n1 != 1 {
		t.Errorf("per-core events = %d/%d, want 2/1 (no partial barrier)", n0, n1)
	}
	for c, stream := range tr.PerCore {
		last := stream[len(stream)-1]
		if c == 0 && last.Kind != KindBarrier {
			t.Errorf("core 0 tail = %v, want the in-budget barrier", last.Kind)
		}
	}

	// After truncation, further emission is a no-op but instruction
	// accounting continues (results stay exact).
	insts := tr.Instructions
	b.Compute(1, 5)
	if dep := b.Load(1, mem.Addr(0x80), mem.Property, NoDep); dep != NoDep {
		t.Errorf("post-truncation load returned index %d, want NoDep", dep)
	}
	if got := b.Build().Instructions; got != insts+6 {
		t.Errorf("post-truncation instructions = %d, want %d", got, insts+6)
	}
	if got := b.Build().Events(); got != 3 {
		t.Errorf("post-truncation stored events = %d, want 3", got)
	}
}

// TestBuilderAllocation: while a kernel emits, the Builder stores each
// event once in a fixed-size chunk, and Build copies it once more into
// the trace's exact-size array, so building a trace allocates about twice
// its event bytes. A builder that grows each core's slice by append
// allocates more than five times them and fails the 2.25 bound.
func TestBuilderAllocation(t *testing.T) {
	const loads = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBuilder(nil, 4, 0)
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
	tr := b.Build()
	runtime.ReadMemStats(&after)

	if got := tr.Events(); got != loads+4 {
		t.Fatalf("stored events = %d, want %d", got, loads+4)
	}
	eventBytes := float64(tr.Events()) * float64(unsafe.Sizeof(Event{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / eventBytes
	t.Logf("allocated %.2fx the trace's %.0f event bytes", ratio, eventBytes)
	if ratio > 2.25 {
		t.Errorf("building the trace allocated %.2fx its event bytes, want at most 2.25x", ratio)
	}
}

// TestBuildStreamsAreDisjoint: each core's stream is a capacity-clipped
// window of one array, holding its events in emission order across chunk
// boundaries, so appending to one core's stream cannot overwrite the next
// core's events; a core with no events keeps a nil stream; and Build is
// repeatable.
func TestBuildStreamsAreDisjoint(t *testing.T) {
	b := NewBuilder(nil, 3, 0)
	for i := range 3*chunkEvents + 5 {
		b.Load(i%2, mem.LineAddrOf(i), mem.Structure, NoDep)
	}
	tr := b.Build()

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
	if again := b.Build(); !reflect.DeepEqual(again, tr) {
		t.Error("a second Build differs from the first")
	}
}
