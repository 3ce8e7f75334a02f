package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced pass. Spans of one simulation
// share a request id; parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced pass's spans in memory until the pass ends. Times
// are nanoseconds since the recorder was created.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 is "no
// parent").
func (s *spans) begin(name, req string, parent int) int {
	s.list = append(s.list, span{
		ID:     len(s.list) + 1,
		Parent: parent,
		Name:   name,
		Req:    req,
		Start:  int64(time.Since(s.t0)),
	})
	return len(s.list)
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	sp := &s.list[id-1]
	sp.End = int64(time.Since(s.t0))
	return time.Duration(sp.End - sp.Start)
}

// timed runs fn inside a span and returns the span's duration.
func (s *spans) timed(name, req string, parent int, fn func() error) (time.Duration, error) {
	id := s.begin(name, req, parent)
	err := fn()
	return s.end(id), err
}

// write stores the spans as JSON lines at path, creating its directory.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
