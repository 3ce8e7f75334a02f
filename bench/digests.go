package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
)

// digest pins the SHA-256 of a workload's output. seed 0 means the
// output does not depend on the seed.
type digest struct {
	seed uint64
	sha  string
}

// pinned holds each workload's output digest at full size on linux/amd64
// (other architectures may fuse floating-point operations differently):
// the summary JSON of the single-simulation workloads, the formatted
// table, and the service's responses to droplet-load's three requests
// concatenated in benchmark order (every cold response's summary must
// also equal its benchmark's). The model is not validated against
// hardware; correctness here means these outputs do not move unless a
// change says why.
var pinned = map[string]digest{
	"pr-kron-droplet": {seed: 1, sha: "0ef49759441392dea399a33c2ffc66ac816b6ab203d707cc8f30ea697ae83b1b"},
	"bfs-road-stream": {seed: 1, sha: "f3ffba83240617f37778563cee5490b8b297e51c2719ae978718b368dab698a7"},
	// The same bytes `dropletsim -matrix fig11 -benchmarks
	// PR-road,BFS-road -scale quick` writes, less its trailing blank
	// line.
	"fig11-table": {seed: 0, sha: "d75e89f337dacffd5669817efa0ebe59f9b9651144a970e4ba16071257132e11"},
	"serve-cold":  {seed: 0, sha: "b178d8a7834c1689f7aa5484589c9f301775ba6a8259fed9683b01c7fcbbfe48"},
	"serve-warm":  {seed: 0, sha: "b178d8a7834c1689f7aa5484589c9f301775ba6a8259fed9683b01c7fcbbfe48"},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPinned compares out with the workload's pinned digest when the run
// is the pinned configuration.
func (r *runner) checkPinned(out []byte) {
	want, ok := pinned[r.cfg.Workload]
	if !ok || r.cfg.Toy || runtime.GOARCH != "amd64" || (want.seed != 0 && want.seed != r.cfg.Seed) {
		return
	}
	if got := sha256Hex(out); got != want.sha {
		r.fail("output digest %s, pinned %s", got, want.sha)
	}
}
