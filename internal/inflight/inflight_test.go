package inflight

import (
	"slices"
	"testing"
)

// refWindow is the reference model: a sorted slice pruned by copying the
// survivors down and filled by linear insertion from the back.
type refWindow []int64

func (r *refWindow) prune(now int64) {
	i := 0
	for i < len(*r) && (*r)[i] <= now {
		i++
	}
	*r = (*r)[:copy(*r, (*r)[i:])]
}

func (r *refWindow) push(t int64) {
	j := len(*r)
	*r = append(*r, t)
	for j > 0 && (*r)[j-1] > t {
		(*r)[j] = (*r)[j-1]
		j--
	}
	(*r)[j] = t
}

const (
	opPush  = 0
	opPrune = 1
)

// window builds a fuzz input: capacity, then (op, time) pairs.
func window(capacity byte, ops ...byte) []byte { return append([]byte{capacity - 1}, ops...) }

// FuzzWindow drives Window and the reference model through the same
// pushes and prunes — prune thresholds rise and fall, as the simulator's
// do — and checks that both hold the same live entries after every op.
// The first byte picks a capacity of 1 to 8; each following byte pair is
// an op (even: push, odd: prune) and its time.
func FuzzWindow(f *testing.F) {
	// A new minimum drops into the pruned gap in front of head.
	f.Add(window(2, opPush, 10, opPush, 20, opPrune, 10, opPush, 5))
	// Middle inserts: the first shifts the front side into the gap, the
	// second (no gap left) shifts the back side.
	f.Add(window(4, opPush, 10, opPush, 20, opPush, 30, opPush, 40, opPush, 50, opPush, 60,
		opPrune, 15, opPush, 25, opPush, 55))
	// The backing array runs out with a dead prefix: Push compacts, then
	// a new minimum lands in the front slack the compaction kept.
	f.Add(window(2, opPush, 1, opPush, 2, opPush, 3, opPush, 4, opPrune, 2, opPush, 5, opPush, 0))
	// More live entries than twice the capacity: the array grows.
	f.Add(window(1, opPush, 5, opPush, 4, opPush, 3, opPush, 2, opPush, 1, opPush, 9))
	// A prune at a lower threshold after a higher one resurrects nothing.
	f.Add(window(4, opPush, 10, opPush, 20, opPush, 30, opPrune, 25, opPrune, 5, opPush, 15, opPrune, 12))
	// A middle insert equal to the live range's middle entry (40 of
	// 20..60), just below it and just above it: the two at or above it
	// shift from the back, the one below from the front.
	for _, v := range []byte{40, 39, 41} {
		f.Add(window(8, opPush, 10, opPush, 20, opPush, 30, opPush, 40, opPush, 50, opPush, 60,
			opPrune, 10, opPush, v))
	}
	// No gap in front of head and t below every live entry: the shift from
	// the back must stop at head, not read the slot before it.
	f.Add(window(4, opPush, 10, opPush, 20, opPush, 30, opPush, 5))
	// Long shifts: a full array of 14 live entries compacts, then 75 lands
	// just below the middle entry (80) and shifts seven entries down, or
	// 85 lands just above it and shifts six up.
	for _, v := range []byte{75, 85} {
		f.Add(window(8, opPush, 1, opPush, 2, opPrune, 2,
			opPush, 10, opPush, 20, opPush, 30, opPush, 40, opPush, 50, opPush, 60, opPush, 70,
			opPush, 80, opPush, 90, opPush, 100, opPush, 110, opPush, 120, opPush, 130, opPush, 140,
			opPush, v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := New(int(data[0]%8) + 1)
		var ref refWindow
		for i := 1; i+1 < len(data); i += 2 {
			v := int64(data[i+1])
			if data[i]&1 == opPush {
				q.Push(v)
				ref.push(v)
			} else {
				q.Prune(v)
				ref.prune(v)
			}
			if q.Len() != len(ref) {
				t.Fatalf("op %d: Len %d, reference holds %v", i/2, q.Len(), ref)
			}
			if len(ref) > 0 && q.Min() != ref[0] {
				t.Fatalf("op %d: Min %d, reference holds %v", i/2, q.Min(), ref)
			}
			if live := q.buf[q.head:]; !slices.Equal(live, ref) {
				t.Fatalf("op %d: live entries %v, reference holds %v", i/2, live, ref)
			}
		}
	})
}
