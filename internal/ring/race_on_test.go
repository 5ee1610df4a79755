//go:build race

package ring

// raceEnabled reports whether the race detector is on: it slows the
// exhaustive structure check of the automorphisms tenfold, so under -race
// that test sweeps every element only up to 2^13.
const raceEnabled = true
