package bench

import (
	"math"
	"testing"
	"time"
)

func TestTimingNormalizesByBlock(t *testing.T) {
	// The reference loop reads 10, 20, 20, 40 ms in turn: the host halves
	// its speed after the first block and again after the second.
	refs := []time.Duration{10, 20, 20, 40}
	tm := timing{ref: func() time.Duration {
		d := refs[0] * time.Millisecond
		refs = refs[1:]
		return d
	}}
	tm.begin()
	for _, block := range [][]time.Duration{{15, 16, 14}, {20}, {30, 31}} {
		for _, d := range block {
			tm.add(d * time.Millisecond)
		}
		tm.flush()
	}
	tm.flush() // an empty block times nothing
	want := []float64{15.0 / 15, 20.0 / 20, 30.5 / 30}
	if len(tm.ratios) != len(want) {
		t.Fatalf("ratios %v, want %v", tm.ratios, want)
	}
	for i := range want {
		if math.Abs(tm.ratios[i]-want[i]) > 1e-12 {
			t.Errorf("ratio %d = %v, want %v", i, tm.ratios[i], want[i])
		}
	}
	if got := tm.normalized(median); got != refNominal {
		t.Errorf("normalized = %v, want the median ratio 1 × %v", got, refNominal)
	}
	if len(tm.raw) != 6 || len(tm.refs) != 4 {
		t.Errorf("kept %d durations and %d reference timings, want 6 and 4", len(tm.raw), len(tm.refs))
	}
}

func TestTimingWithoutReference(t *testing.T) {
	var tm timing
	tm.begin()
	tm.add(time.Millisecond)
	tm.tick()
	tm.flush()
	if len(tm.raw) != 1 || len(tm.ratios) != 0 {
		t.Errorf("raw %v ratios %v: want one duration and no block", tm.raw, tm.ratios)
	}
}

func TestReferencesRun(t *testing.T) {
	l := newRefLoop()
	if d := l.run(); d <= 0 {
		t.Errorf("reference loop took %v", d)
	}
	for i := 1; i < len(l.buf); i++ {
		if l.buf[i-1] > l.buf[i] {
			t.Fatal("reference loop left its buffer unsorted")
		}
	}
	e, err := newEchoLoop([]byte(`{"benchmark":"BFS-road"}`), []byte(`{"hash":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.run(); d <= 0 {
		t.Errorf("echo loop took %v", d)
	}
	if err := e.close(); err != nil {
		t.Errorf("echo loop: %v", err)
	}
}
