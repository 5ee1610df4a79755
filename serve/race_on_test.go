//go:build race

package serve

// raceEnabled reports whether the race detector is on: sync.Pool
// deliberately drops items at random under -race, so allocation
// assertions are not meaningful there.
const raceEnabled = true
