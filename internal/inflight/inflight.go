// Package inflight implements the bounded in-flight completion window
// behind the simulator's occupancy limits: the core's load and store
// queues, the memory controller's request buffer (MRB) and the MPP's
// virtual address buffer (VAB). Each caller prunes the completions that
// are done by its clock, reads the oldest survivor when the window is
// full, and records each new completion; what a full window does (stall,
// count, drop) stays with the caller.
package inflight

// Window tracks the completion times of outstanding entries as a sorted
// array. Callers prune completed entries at every access and the prune
// threshold is NOT monotonic (a dependent load can issue far in the
// future, then its successor issue earlier), so the pruned-out set is
// genuinely historical state: an entry removed at a high threshold must
// stay removed even when a later, lower threshold would have kept it.
// Keeping the array sorted makes that exact eager prune a prefix pop
// (usually zero or one entry) instead of an O(cap) filter-scan per
// access, and Push is a linear insertion from the nearer end that is
// O(1) when completion times trend upward, as they do. The backing array
// is allocated once, in New, and grows only if more entries stay live
// than it has room for.
type Window struct {
	buf  []int64 // buf[head:] holds the live entries, ascending
	head int     // dead prefix below head awaits compaction
}

// New returns an empty window sized for capacity live entries.
func New(capacity int) Window {
	// 2× headroom so the dead prefix can grow for a full window's worth of
	// pushes before Push has to compact.
	return Window{buf: make([]int64, 0, 2*capacity)}
}

// Len returns the number of live entries.
func (q *Window) Len() int { return len(q.buf) - q.head }

// Min returns the earliest completion time of the live entries. The
// window must not be empty.
func (q *Window) Min() int64 { return q.buf[q.head] }

// Push records completion time t, keeping buf[head:] sorted. The dead
// prefix is compacted away only when the backing array is exhausted —
// one memmove per ~capacity pushes instead of one per prune. Two cases
// are O(1): a DRAM completion usually lands at the back, and a cache-hit
// completion below every outstanding one drops into the pruned gap in
// front of head. Any other t is a middle insert (38% of pushes in a
// DROPLET PageRank run), placed by linear insertion from the nearer end:
// below the live range's middle entry, and with a gap in front, the
// entries below t shift down one slot each; otherwise the entries above
// t shift up one slot each, stopping at head. Live windows are short and
// t usually lands near an end, so a middle insert moves about three
// entries.
func (q *Window) Push(t int64) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		// Compact, but keep half the reclaimed prefix as front slack:
		// landing at head=0 would disable the front-insert fast path
		// until prunes rebuild a gap, forcing tail memmoves meanwhile.
		gap := q.head / 2
		n := copy(q.buf[gap:], q.buf[q.head:])
		q.buf = q.buf[:gap+n]
		q.head = gap
	}
	n := len(q.buf)
	if n == q.head || t >= q.buf[n-1] {
		q.buf = append(q.buf, t)
		return
	}
	if q.head > 0 && t <= q.buf[q.head] {
		q.head--
		q.buf[q.head] = t
		return
	}
	if q.head > 0 && t < q.buf[(q.head+n)/2] {
		// buf[head] < t < the middle entry: the shift stops before it.
		q.head--
		i := q.head
		for q.buf[i+1] < t {
			q.buf[i] = q.buf[i+1]
			i++
		}
		q.buf[i] = t
		return
	}
	q.buf = append(q.buf, t)
	i := n
	for i > q.head && q.buf[i-1] > t {
		q.buf[i] = q.buf[i-1]
		i--
	}
	q.buf[i] = t
}

// Prune removes every entry that has completed by now (t <= now) — a
// sorted prefix, so removal is advancing head past it.
func (q *Window) Prune(now int64) {
	for q.head < len(q.buf) && q.buf[q.head] <= now {
		q.head++
	}
}
