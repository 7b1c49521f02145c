//go:build !race

package perf

// raceEnabled reports a build under the race detector, where sync.Pool
// drops items at random and allocation counts are not the program's.
const raceEnabled = false
