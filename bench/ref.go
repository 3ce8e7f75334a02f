package bench

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"time"
)

// The host's speed drifts. On the 2-vCPU VM the benchmark was calibrated
// on, one simulation read anywhere from 470 to 900 ms within a few
// minutes, in slow periods lasting from seconds to hours, so the medians
// of two sets of runs of identical code differed by a third. Every
// end-to-end time is therefore measured next to fixed reference work and
// reported in units of it: each block of operations lasting at least
// blockLen (each build, for setup times) sits between two timings of the
// reference, the block's median duration is divided by the mean of those
// two timings, and a run reports the center of these ratios times
// refNominal: their interquartile mean for operations, of which a run has
// twenty to thirty blocks, and their median for builds. The result reads as the operation's time on a host where
// the reference takes refNominal. README.md, "Host noise and spreads",
// has the measurements behind this.

// refNominal is about the time of the reference work on a quiet period of
// the calibration VM; it only scales the reported values.
const refNominal = 30 * time.Millisecond

// blockLen is the least wall time of operations between two timings of
// the reference. Slow periods last a second or more, so a block of half a
// second sees the speed its reference timings see.
const blockLen = 500 * time.Millisecond

// refLoop is the fixed work the benchmark times next to the program's:
// an 8-way LRU cache model with 2048 sets fed a mix of sequential and
// random lines, then two sorts of 64 Ki random words. Like the
// simulator's inner loop it is branchy and its data stays in the L2. It is
// the benchmark's own code, so no change to the program moves it. Its
// data takes about 0.7 MiB, which the peak memory of the in-process
// workloads includes.
type refLoop struct {
	tags     []uint64
	stamp    []uint32
	src, buf []uint32
}

const (
	refSets     = 2048
	refWays     = 8
	refAccesses = 600_000
	refSorts    = 2
)

func newRefLoop() *refLoop {
	l := &refLoop{
		tags:  make([]uint64, refSets*refWays),
		stamp: make([]uint32, refSets*refWays),
		src:   make([]uint32, 1<<16),
		buf:   make([]uint32, 1<<16),
	}
	x := uint64(5)
	for i := range l.src {
		x = xorshift(x)
		l.src[i] = uint32(x)
	}
	return l
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run does the loop's work once from the same starting state and returns
// how long it took.
func (l *refLoop) run() time.Duration {
	clear(l.tags)
	clear(l.stamp)
	t0 := time.Now()
	x, seq := uint64(7), uint64(0)
	for i := range refAccesses {
		x = xorshift(x)
		line := seq
		if x&3 == 0 {
			line = (x >> 8) % (1 << 20)
		} else {
			seq++
		}
		base := int(line%refSets) * refWays
		hit, victim := -1, base
		for w := base; w < base+refWays; w++ {
			if l.tags[w] == line {
				hit = w
				break
			}
			if l.stamp[w] < l.stamp[victim] {
				victim = w
			}
		}
		if hit >= 0 {
			l.stamp[hit] = uint32(i + 1)
		} else {
			l.tags[victim], l.stamp[victim] = line, uint32(i+1)
		}
	}
	for range refSorts {
		copy(l.buf, l.src)
		slices.Sort(l.buf)
	}
	return time.Since(t0)
}

// echoLoop is the reference for an operation that spends its time in the
// host's network stack and HTTP server rather than in CPU-bound work like
// the reference loop's: echoRounds posts of a fixed body over one
// keep-alive loopback connection to an HTTP handler in this process that
// answers each with a fixed reply.
type echoLoop struct {
	srv    *http.Server
	served chan error
	client *http.Client
	url    string
	body   []byte
	err    error // the first failed round trip
}

// echoRounds makes the echo loop take 18–26 ms on the calibration VM, near
// the reference loop's time.
const echoRounds = 600

func newEchoLoop(body, reply []byte) (*echoLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoLoop{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write(reply)
		})},
		served: make(chan error, 1),
		client: newClient(1),
		url:    "http://" + ln.Addr().String(),
		body:   body,
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// run does the round trips and returns how long they took.
func (e *echoLoop) run() time.Duration {
	t0 := time.Now()
	for range echoRounds {
		resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(e.body))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil && e.err == nil {
			e.err = err
		}
	}
	return time.Since(t0)
}

// close stops the handler and returns the first error the loop met.
func (e *echoLoop) close() error {
	e.client.CloseIdleConnections()
	err := e.srv.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return errors.Join(e.err, err)
}

// timing collects the durations of one kind of operation in blocks, each
// between two timings of the reference loop. With no reference loop (in
// traced runs and memory probes) it only collects.
type timing struct {
	ref    func() time.Duration // times the reference loop
	raw    []float64            // every duration, ms
	refs   []float64            // every reference timing, ms
	ratios []float64            // per block: median duration over the mean reference timing around it

	block  []float64
	start  time.Time
	before float64
}

// begin times the reference loop ahead of the first block.
func (t *timing) begin() {
	if t.ref == nil {
		return
	}
	t.before = t.timeRef()
	t.start = time.Now()
}

func (t *timing) timeRef() float64 {
	d := millis(t.ref())
	t.refs = append(t.refs, d)
	return d
}

// add records one operation's duration.
func (t *timing) add(d time.Duration) {
	ms := millis(d)
	t.raw = append(t.raw, ms)
	t.block = append(t.block, ms)
}

// tick closes the block once it has lasted blockLen. Call it between
// operations.
func (t *timing) tick() {
	if time.Since(t.start) >= blockLen {
		t.flush()
	}
}

// flush closes the block, if it holds any operation.
func (t *timing) flush() {
	if t.ref == nil || len(t.block) == 0 {
		return
	}
	after := t.timeRef()
	t.ratios = append(t.ratios, median(t.block)/((t.before+after)/2))
	t.before, t.block, t.start = after, t.block[:0], time.Now()
}

// normalized closes the last block and returns the center of the block
// ratios in units of refNominal: the operation's time on a host where the
// reference loop takes refNominal.
func (t *timing) normalized(center func([]float64) float64) time.Duration {
	t.flush()
	return time.Duration(center(t.ratios) * float64(refNominal))
}
