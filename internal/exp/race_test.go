//go:build race

package exp

// raceEnabled reports a -race build, which runs the simulator several
// times slower than a plain one.
const raceEnabled = true
