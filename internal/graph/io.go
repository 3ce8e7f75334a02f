package graph

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" or
// "u v w" per line, '#' and '%' comments ignored — the SNAP/GAP .el/.wel
// format) and builds a CSR with the given options through FromEdges, so
// with NumVertices 0 a vertex ID of MaxVertices or more is an error.
// Weights present in the input are kept only when opt.Weighted is set;
// absent weights default to 1.
func ReadEdgeList(r io.Reader, opt BuildOptions) (*CSR, error) {
	uv, w, err := parseEdgeList(r, opt.Weighted)
	if err != nil {
		return nil, err
	}
	return build(uv, w, opt, runtime.GOMAXPROCS(0))
}

// parseEdgeList parses ReadEdgeList's format straight into the build's
// packed edges, and their weights only when weighted.
func parseEdgeList(r io.Reader, weighted bool) (uv []uint64, ws []int32, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad destination: %w", lineNo, err)
		}
		w := int64(1)
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
		}
		uv = append(uv, pack(uint32(u), uint32(v)))
		if weighted {
			ws = append(ws, int32(w))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	return uv, ws, nil
}

// WriteEdgeList writes g in the format ReadEdgeList parses ("u v" per
// line, "u v w" for weighted graphs).
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.NumVertices(); u++ {
		if g.Weighted() {
			ws := g.NeighborWeights(uint32(u))
			for i, v := range g.Neighbors(uint32(u)) {
				if _, err := fmt.Fprintf(bw, "%d %d %d\n", u, v, ws[i]); err != nil {
					return err
				}
			}
		} else {
			for _, v := range g.Neighbors(uint32(u)) {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
